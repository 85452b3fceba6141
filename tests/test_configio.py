from dataclasses import dataclass

import pytest

from c2sift.configio import read_settings
from c2sift.learners.boosting import GBMParams
from c2sift.learners.forest import RFParams


@dataclass(frozen=True)
class Knobs:
    count: int = 3
    rate: float = 0.5
    ports: tuple[int, ...] = (80, 443)
    depth: int | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


def test_values_cast_to_the_type_of_each_default():
    knobs = read_settings(Knobs, {"count": "7", "rate": "2", "ports": ["22", "8080"]}, "knobs.cfg")
    assert knobs == Knobs(count=7, rate=2.0, ports=(22, 8080))
    assert type(knobs.rate) is float


def test_none_default_takes_the_value_as_is():
    assert read_settings(Knobs, {"depth": "sqrt"}, "src").depth == "sqrt"
    assert read_settings(Knobs, {}, "src") == Knobs()


@pytest.mark.parametrize(
    "values, message",
    [
        ({"cuont": 2}, "knobs.cfg: unknown key 'cuont'"),
        ({"count": "x"}, "knobs.cfg: count = 'x' is not a valid int"),
        ({"ports": ["80", "web"]}, "knobs.cfg: ports = "),
        ({"count": "0"}, "knobs.cfg: count must be >= 1"),
    ],
)
def test_refusals_name_the_source_and_the_key(values, message):
    with pytest.raises(ValueError) as exc:
        read_settings(Knobs, values, "knobs.cfg")
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"n_rounds": 2.7}, "gbm: n_rounds = 2.7 is not a valid int"),
        ({"max_depth": True}, "gbm: max_depth = True is not a valid int"),
        ({"learning_rate": False}, "gbm: learning_rate = False is not a valid float"),
    ],
)
def test_lossy_casts_refused(values, message):
    with pytest.raises(ValueError) as exc:
        read_settings(GBMParams, values, "gbm")
    assert str(exc.value) == message


def test_casts_that_keep_the_value_read():
    gp = read_settings(GBMParams, {"n_rounds": 2.0, "learning_rate": 1, "max_depth": "4"}, "gbm")
    assert gp == GBMParams(n_rounds=2, learning_rate=1.0, max_depth=4)
    assert type(gp.n_rounds) is int and type(gp.learning_rate) is float


@pytest.mark.parametrize("value, expected", [("false", False), ("true", True), (False, False), (True, True)])
def test_bool_field_reads_true_and_false(value, expected):
    assert RFParams.from_mapping({"bootstrap": value}, 9, "rf").bootstrap is expected


@pytest.mark.parametrize("value", ["False", "no", "0", 0, 1, None])
def test_bool_field_refuses_anything_else(value):
    with pytest.raises(ValueError) as exc:
        RFParams.from_mapping({"bootstrap": value}, 9, "rf")
    assert str(exc.value) == f"rf: bootstrap = {value!r} is not a valid bool"

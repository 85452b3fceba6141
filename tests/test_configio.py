from dataclasses import dataclass

import pytest

from c2sift.configio import read_settings


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

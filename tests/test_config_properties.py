"""Property tests of ``cli.validate``.

One malformed key of a config is rejected with a ``ConfigError`` that names
exactly that key, and no other exception escapes.  Each case takes one
config (the ``configs/*.json`` files, plus ``spectrum`` and ``pseudomode`` on
an interval and a disk and ``classify`` on an ellipse and a polygon) and one
of its leaf keys, and replaces that key's value by something malformed: a
value of the wrong type, NaN or an infinity, a negative number, an empty
list, or a list of the wrong length.  Replacements that leave a valid config
are not drawn: a negative entry where the sign is free (coordinates, the
field, the drift, the angle, the shift), a longer list where any length is
allowed, and no survival thresholds at all.

An integral number validates to the same params written as an int or as a
float, wherever it stands.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab.cli import validate
from pslab.errors import ConfigError

INTERVAL = {"type": "interval", "a": 0.0, "b": 1.0}
DISK = {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}
CONFIGS = {p.stem: json.loads(p.read_text()) for p in
           sorted((Path(__file__).parents[1] / "configs").glob("*.json"))}
CONFIGS |= {
    "spectrum_interval": {
        "experiment": "spectrum", "domain": INTERVAL, "field": {"X": [1.0]},
        "params": {"h": 0.05, "k": 3, "n": 400, "shift": 0.25}},
    "spectrum_disk": {
        "experiment": "spectrum", "domain": DISK, "field": {"X": [1.0, 0.0]},
        "params": {"h": 0.1, "k": 3, "dx": 0.05, "shift": 0.25}},
    "pseudomode_interval": {
        "experiment": "pseudomode", "domain": INTERVAL, "field": {"X": [1.0]},
        "params": {"z": [1.0, 0.5], "h": 0.05, "n": 200}},
    "pseudomode_disk": {
        "experiment": "pseudomode", "domain": DISK,
        "field": {"X": [1.0, 0.0]},
        "params": {"z": [1.0, 0.5], "h": 0.05, "dx": 0.01}},
    "classify_ellipse": {
        "experiment": "classify",
        "domain": {"type": "ellipse", "center": [0.1, -0.2],
                   "semi_axes": [1.2, 0.7], "angle": 0.4},
        "field": {"X": [1.0, 0.5]}, "params": {"n_samples": 64}},
    "classify_polygon": {
        "experiment": "classify",
        "domain": {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 2],
                                                   [1, 2], [1, 1], [0, 1]]},
        "field": {"X": [1.0, 0.0]}, "params": {"n_samples": 64}},
}

# keys whose entries may take either sign in a valid config
SIGN_FREE = {"domain.a", "domain.center", "domain.vertices", "domain.angle",
             "field.X", "params.x0", "params.b", "params.rect", "params.z",
             "params.generators", "params.bump.center", "params.survival_s",
             "params.shift"}
# lists of any length, and lists that may be empty
ANY_LENGTH = {"params.h_list", "params.survival_s"}
MAY_BE_EMPTY = {"params.survival_s"}


def leaves(obj: dict, prefix: str = ""):
    for key, val in obj.items():
        if isinstance(val, dict):
            yield from leaves(val, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", val


def put(cfg: dict, path: str, value):
    *parents, last = path.split(".")
    for key in parents:
        cfg = cfg[key]
    cfg[last] = value


CASES = [(name, path) for name, cfg in CONFIGS.items()
         for path, _ in leaves(cfg)]

# not a number, and not a string any key accepts
JUNK = st.one_of(
    st.text(max_size=8).filter(lambda t: t != "gamma_plus"),
    st.none(), st.booleans(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.one_of(st.integers(max_value=-1),
                     st.floats(max_value=-1e-9, allow_infinity=False))


def replace_entry(value: list, entry) -> st.SearchStrategy:
    """``value`` with one entry (a row's first number, for rows) replaced."""
    def at(i, new):
        out = copy.deepcopy(value)
        if isinstance(out[i], list):
            out[i][0] = new
        else:
            out[i] = new
        return out
    return st.builds(at, st.integers(0, len(value) - 1), entry)


def malformed(path: str, value) -> st.SearchStrategy:
    if isinstance(value, str):
        return st.one_of(st.integers(), st.floats(), st.booleans(),
                         st.lists(st.integers(), max_size=2), st.none())
    kinds = [JUNK, NONFINITE]
    if not isinstance(value, list):
        kinds += [st.just([]), st.just([value, value])]
        if path not in SIGN_FREE:
            kinds.append(NEGATIVE)
        return st.one_of(kinds)
    kinds += [replace_entry(value, JUNK), replace_entry(value, NONFINITE)]
    if path not in MAY_BE_EMPTY:
        kinds.append(st.just([]))
    if isinstance(value[0], list):
        # one row of the wrong length
        kinds.append(st.just([value[0] + [0.0]] + value[1:]))
    elif path not in ANY_LENGTH:
        kinds += [st.just(value + value[:1]), st.just(value[:-1])]
    if path not in SIGN_FREE:
        kinds.append(replace_entry(value, NEGATIVE))
    return st.one_of(kinds)


@pytest.mark.parametrize("name, path", CASES,
                         ids=[f"{n}:{p}" for n, p in CASES])
def test_malformed_key_is_named(name, path):
    value = dict(leaves(CONFIGS[name]))[path]

    @settings(derandomize=True, database=None, max_examples=25,
              deadline=None)
    @given(malformed(path, value))
    def check(bad):
        cfg = copy.deepcopy(CONFIGS[name])
        put(cfg, path, bad)
        with pytest.raises(ConfigError) as err:
            validate(cfg)
        assert err.value.key == path, (bad, str(err.value))

    check()


def test_shipped_configs_are_valid():
    for cfg in CONFIGS.values():
        validate(copy.deepcopy(cfg))


def respell(obj, flip):
    """obj with each int for which ``flip()`` is true written as a float."""
    if isinstance(obj, dict):
        return {key: respell(val, flip) for key, val in obj.items()}
    if isinstance(obj, list):
        return [respell(val, flip) for val in obj]
    return float(obj) if type(obj) is int and flip() else obj


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_integral_float_validates_like_int(name):
    want = json.dumps(validate(copy.deepcopy(CONFIGS[name]))[2],
                      sort_keys=True)

    @settings(derandomize=True, database=None, max_examples=10,
              deadline=None)
    @given(st.data())
    def check(data):
        cfg = respell(CONFIGS[name], lambda: data.draw(st.booleans()))
        assert json.dumps(validate(cfg)[2], sort_keys=True) == want

    check()

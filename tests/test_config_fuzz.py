"""Property tests: the config loader and the CLI on arbitrary JSON input.

Parsing any JSON value gives a Config or raises ConfigError.  Replacing one
leaf of the README spectrum, collapse and meanfield configs by arbitrary
JSON gives exit 0, 2 or 3 and never an exception.  Every value that sets
the size of a run (ncut, samples, m, and the mean-field step count
|tspan| / dt) is small, in the base configs and in the drawn values, so no
example allocates much.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from polysl2 import cli
from polysl2.cli import Config, ConfigError, main, parse_config

SECTIONS = (
    cli.Config,
    cli.ThreeBosonConfig,
    cli.CustomPsiConfig,
    cli.Sl2LimitConfig,
    cli.BlocksConfig,
    cli.LabelConfig,
    cli.DynamicsConfig,
    cli.MeanfieldConfig,
)
KEYS = sorted({name for cls in SECTIONS for name in cls._keys})

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["three_boson", "sl2_limit", "custom_psi", "all", "exact"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=16,
)
NUMBERS = st.floats() | st.integers() | st.integers(-3, 3)
# values without any size: everything but numbers
SIZELESS = (
    st.none() | st.booleans() | st.text(max_size=4) | st.lists(SCALARS, max_size=3)
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SMALL = {
    "ncut": st.integers(-1, 4) | st.floats(-1.0, 4.0),
    "samples": st.integers(990, 1010) | st.floats(990.0, 1010.0),
    "m": st.integers(-1, 6) | st.floats(-1.0, 6.0),
    # with dt >= 1e-3 and |tspan| <= 2 a trajectory has at most 2,000 steps
    "tspan": st.floats(-2.0, 2.0) | NON_FINITE,
    "dt": st.floats(1e-3, 1e3) | st.floats(max_value=0.0) | NON_FINITE,
}

TB = {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 1.0}
README = {
    "spectrum": (
        "spectrum",
        {
            "model": "three_boson",
            "solver": "all",
            "three_boson": TB,
            "blocks": {"ncut": 2},
        },
    ),
    "collapse": (
        "dynamics",
        {
            "model": "three_boson",
            "three_boson": TB,
            "dynamics": {
                "alpha": [0.0, 0.0, 5.0], "ncut": 4, "tmax": 100.0, "samples": 1000
            },
        },
    ),
    "meanfield": (
        "meanfield",
        {
            "model": "three_boson",
            "three_boson": TB,
            "blocks": {"labels": [{"k": 0, "m": 4}]},
            "meanfield": {"p0": 0.8, "q0": 0.3, "tspan": 1.0, "dt": 0.01},
        },
    ),
}


def _leaves(obj, path=()):
    """Paths to every scalar in a config, list entries included."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [leaf for key, val in items for leaf in _leaves(val, path + (key,))]


LEAVES = [(name, path) for name, (_, cfg) in README.items() for path in _leaves(cfg)]


@st.composite
def mutated_configs(draw):
    name, path = draw(st.sampled_from(LEAVES))
    command, cfg = README[name]
    cfg = json.loads(json.dumps(cfg))
    key = next((k for k in reversed(path) if isinstance(k, str)), None)
    value = draw(SMALL[key] | SIZELESS if key in SMALL else NUMBERS | JSON)
    target = cfg
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return command, cfg


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(JSON)
def test_parse_gives_config_or_config_error(value):
    try:
        cfg = parse_config(value)
    except ConfigError:
        return
    assert isinstance(cfg, Config)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutated_configs())
def test_cli_on_mutated_readme_configs_exits_cleanly(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            # truncation and pole-clamp warnings are expected for such inputs
            warnings.simplefilter("ignore", UserWarning)
            code = main([command, "--config", str(path), "--out", str(out)])
    assert code in (0, 2, 3), err.getvalue()

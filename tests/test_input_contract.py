"""Fuzz of the input contract: every config ends in a report or a documented exit code.

Configs are drawn over the shipped systems E1..E5 and every command, with
options taken from the option table's keys plus mistyped ones, and values
that are small or huge integers, finite or non-finite floats, strings, null,
lists and objects. `cli.main` must exit with 0..4; 5 means an internal error.
The budget stays at most 2e5 words, so every run is short.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cocyclespan.cli as cli

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = {path.stem: json.loads(path.read_text())["system"]
           for path in sorted((ROOT / "configs").glob("*.json"))}
UNKNOWN = ["kmax", "seeed", "tail_strat", "c"]
HUGE = [10**6, 10**9, 2**70, 10**400]

small_ints = st.integers(-2, 5)
ints = st.one_of(small_ints, st.sampled_from(HUGE))
floats = st.one_of(st.floats(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([math.nan, math.inf, -math.inf]))
strings = st.sampled_from(["", "abc", "auto", "norm_s", "sv_s", "sv_s_squared",
                           "theorem_1_1", "corollary_4_3", "12"])
words = st.sampled_from(["1", "12", "21", "13", "1111"])
scalars = st.one_of(ints, floats, strings, words, st.none())
lists = st.lists(st.one_of(scalars, st.lists(st.one_of(small_ints, floats), max_size=3)),
                 max_size=3)


def typed(opt):
    """Values of an option's own type, most of them usable."""
    if isinstance(opt.type, tuple):
        return st.sampled_from(opt.type)
    return {int: ints, float: floats, str: strings, list: lists,
            dict: nested("targets"), object: st.one_of(st.just("auto"), nested("qm"))}[opt.type]


def nested(name):
    keys = st.sampled_from(sorted(cli.NESTED[name]) * 4 + UNKNOWN)
    return st.dictionaries(keys, st.one_of(scalars, lists, st.lists(words, max_size=3)),
                           max_size=3)


# a small valid run of each command, which the drawn options then overwrite
BASE = {
    "check-hypotheses": {"mode": "theorem_1_1"},
    "spannability": {"k_max": 3},
    "qm": {"k": 1, "n_max": 2},
    "pressure": {"n": 4, "s_grid": [0.5, 1.2]},
    "s0": {"targets": {"all_ones": 4}, "n": 4},
    "r0": {"beta": 0.3, "n": 4},
    "affinity-dim": {"n": 4},
    "mixing": {"s": 1.0, "L": 2, "gap": 2},
    "export-attractor": {"depth": 2},
}


@st.composite
def configs(draw):
    command = draw(st.sampled_from(cli.COMMANDS))
    options = dict(BASE[command])
    for key in draw(st.lists(st.sampled_from(sorted(cli._KNOWN) * 4 + UNKNOWN), max_size=3)):
        own = typed(cli._KNOWN[key]) if key in cli._KNOWN else st.nothing()
        options[key] = draw(st.one_of(own, own, scalars, lists, nested("targets")))
    options["budget"] = draw(st.integers(0, 200_000))
    return {"system": SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))],
            "command": command, "options": options}


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_ends_in_a_documented_exit(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(path), "--csv-dir", tmp,
                             "--out", str(Path(tmp) / "report.json")])
    assert 0 <= code <= 4, err.getvalue()

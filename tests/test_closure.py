"""Every file one stage writes, the next stage reads.

Hypothesis draws simulator configs of at most 30 patients, with extreme
sampler ends, dates and day gaps. A config that ``simulate`` accepts must
give a CSV that ``transform`` accepts, and that XES must then pass
``discover``, ``conform`` against the reference net, ``cohorts`` and
``decide``: each exits 0, or exits 1 because the model, a search cap or the
classifiers do not fit what the log holds, but never because it could not
read what an earlier stage wrote, and never exits 2. Every net that
``discover`` writes reads back equal.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pathminer.cli as cli
from pathminer.errors import ConfigError, InputError, ModelError, PathminerError, ResourceError
from pathminer.net_io import read_net_json
from pathminer.simulate import DEFAULT_ATTRIBUTE_SAMPLERS, DEFAULT_PLACE_WEIGHTS

# A sampler end or constant: an everyday number, or one near the float range's edge.
ENDS = st.one_of(st.integers(-100, 5000) | st.floats(-1e6, 1e6, allow_nan=False),
                 st.sampled_from([-1.7e308, 1.7e308, -10**308, 10**308]))
# Sampler ranges, with the widest ones that a float or an int can state.
RANGES = st.sampled_from([(-1.7e308, 1.7e308), (-10**308, 10**308), (0, 1.7e308), (-10**308, 0)]) \
    | st.tuples(ENDS, ENDS).map(sorted)


@st.composite
def sampler(draw, name: str) -> dict:
    """A sampler spec for attribute ``name``, mostly of a kind that fits it."""
    kinds = [DEFAULT_ATTRIBUTE_SAMPLERS[name].kind, "constant", "absent"]
    kind = draw(st.sampled_from(kinds) | st.sampled_from(["uniform", "uniform_int", "bernoulli"]))
    low, high = draw(RANGES)
    return {"kind": kind, "low": low, "high": high, **draw(st.fixed_dictionaries({}, optional={
        "p": st.floats(0, 1), "decimals": st.integers(-3, 12), "value": ENDS | st.booleans(),
        "missing_rate": st.floats(0, 1)}))}


@st.composite
def configs(draw) -> dict:
    """A simulator config document; some are refused, which is allowed."""
    names = draw(st.lists(st.sampled_from(sorted(DEFAULT_ATTRIBUTE_SAMPLERS)), unique=True, max_size=5))
    weights = {place: st.fixed_dictionaries({label: st.integers(1, 100) | st.floats(0, 100)
                                             for label in choices})
               for place, choices in DEFAULT_PLACE_WEIGHTS.items()}
    lo = draw(st.integers(1, 60))
    return {
        "patients": draw(st.integers(0, 30)),
        "seed": draw(st.integers(0, 10**6)),
        "start_date": draw(st.sampled_from(["2020-01-01", "0001-01-01", "9999-12-31"])
                           | st.dates().map(str)),
        "start_window_days": draw(st.integers(0, 400) | st.integers(0, 10**12)),
        "gap_days": [lo, lo + draw(st.integers(0, 100) | st.integers(0, 10**12))],
        "places": draw(st.just({}) | st.fixed_dictionaries({}, optional=weights)),
        "attributes": {name: draw(sampler(name)) for name in names},
    }


def outcome(argv) -> tuple[int, Exception | None]:
    """The exit code that ``main`` gives for ``argv``, and the error it prints."""
    try:
        return cli.run([str(a) for a in argv]), None
    except (PathminerError, OSError) as exc:
        return 1, exc
    except Exception as exc:
        return 2, exc


def fits_the_log(exc: Exception | None) -> bool:
    """Whether a command's error is about what the log holds, not how it was written."""
    return exc is None or isinstance(exc, (ModelError, ResourceError)) or isinstance(exc, InputError) and (
        # a cohort of one patient, or none, has too few decisions to hold one out; a sampler
        # range near the float range's edge draws numbers that the classifiers cannot square
        str(exc) == "at least two decision instances are required"
        or str(exc).endswith("beyond the classifiers' range of ±1e100"))


@settings(max_examples=45, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs())
def test_what_simulate_writes_every_later_stage_reads(config):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "config.json").write_text(json.dumps(config))
        code, exc = outcome(["simulate", "--config", d / "config.json", "--output", d / "p.csv"])
        assert code == 0 or isinstance(exc, ConfigError), exc
        if code:
            return
        assert outcome(["transform", "--input", d / "p.csv", "--output", d / "log.xes"]) == (0, None)
        assert outcome(["dejure", "--output", d / "dejure.json"]) == (0, None)
        for algorithm, stage in (("dfg", "mine_dfm"), ("alpha", "mine_alpha")):
            nets, build = [], getattr(cli, stage)
            with mock.patch.object(cli, stage, lambda *args: nets.append(build(*args)) or nets[-1]):
                code, exc = outcome(["discover", "--input", d / "log.xes", "--algorithm", algorithm,
                                     "--output", d / f"{algorithm}.json"])
            assert code != 2 and fits_the_log(exc), (algorithm, exc)
            if code == 0:
                assert read_net_json((d / f"{algorithm}.json").read_bytes()) == nets[0]
        later = [
            ["conform", "--log", d / "log.xes", "--net", d / "dejure.json", "--output", d / "c.json"],
            *(["cohorts", "--log", d / "log.xes", "--axis", axis, "--outdir", d / axis]
              for axis in ("diabetes", "ckd")),
            *(["decide", "--log", d / "log.xes", "--net", d / "dejure.json", "--place", place,
               "--classifiers", "majority,naive-bayes,logistic,decision-tree",
               "--output", d / f"{place}.json"] for place in ("p1", "p4")),
        ]
        for argv in later:
            code, exc = outcome(argv)
            assert code != 2 and fits_the_log(exc), (argv[0], exc)

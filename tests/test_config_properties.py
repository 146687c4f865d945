"""Property test: the config parser fails only with ConfigError.

Sections are drawn from every kind, dimensions 0-4 and random values for
every key the kind parsers read, plus keys no kind reads.  Whatever the
values, parse_experiment returns a spec or raises ConfigError (exit 2,
section and key named); any other exception would surface as a crash.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from smoothing_lab.errors import ConfigError  # noqa: E402
from smoothing_lab.harness import REGISTRY, parse_experiment  # noqa: E402

KEYS = [
    "kind", "n", "packet1", "packet2", "datum_id", "tolerance", "output",
    "schedule_start", "schedule_factor", "schedule_count",
    "weight", "eps", "k", "value", "rescale_r", "liminf_fraction",
    # keys no parser reads
    "schedule_kind", "identity_check", "final_ratio", "time_nodes",
    "rel_tol", "tau_space",
]

WORDS = ["", "0", "1", "-1", "0.5", "1e-300", "1e300", "nan", "inf", "-inf",
         "eps", "bump", "constant", "T", "R", "t", "true", "x", *REGISTRY]

VALUES = st.one_of(
    st.sampled_from(WORDS),
    st.integers(-3, 12).map(str),
    st.floats().map(repr),
    st.lists(st.floats(-2.0, 2.0), max_size=9).map(
        lambda xs: " ".join(map(repr, xs))),
    st.text(max_size=6),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(sorted(REGISTRY)), n=st.integers(0, 4),
       items=st.dictionaries(st.sampled_from(KEYS), VALUES))
def test_parser_raises_only_config_error(kind, n, items):
    # a valid core that the drawn items override key by key, so the draws
    # reach the weight and schedule parsers and not only the first check
    section = {"kind": kind, "n": str(n), "packet1": "1 0 1" + " 0" * (2 * n),
               "weight": "eps", "eps": "1", "k": "2", "schedule_start": "1",
               "schedule_count": "3", **items}
    try:
        parse_experiment("prop", section)
    except ConfigError as exc:
        assert exc.section == "prop"

"""No ``experiments run`` argv ends in a traceback.

Argv is drawn from the parser's own tables: every registry entry name
(plus ``all`` and a junk name), every :data:`~repro.harness.OVERRIDES`
flag, ``--seed``, ``--smoke``, ``--trace`` and ``--jobs``, each with an
in-range, an out-of-range or a junk value.  The cell executor and every
cell-less table are stubbed to raise a sentinel, so no cell runs: each
argv must end in exit 0, in exit 2 with ``error: ...`` on stderr, or in
the sentinel (the arguments were accepted and a table was about to be
computed).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.faults.misbehavior import LIES, ROLES
from repro.harness import EXPERIMENTS, OVERRIDES


class CellWouldRun(Exception):
    """Raised by the stubs where a table would start being computed."""


class StubSession:
    def __init__(self, spec, out_dir=None):
        pass

    def run(self, jobs=1):
        raise CellWouldRun


def stub_tabulate():
    raise CellWouldRun


JUNK = st.text(alphabet="ab1-=.+ ", min_size=0, max_size=5)
INTS = st.one_of(st.integers(-3, 8), st.sampled_from(["1e3", "2.5"]), JUNK)
FLOATS = st.one_of(
    st.floats(-1.0, 2.0, allow_nan=False),
    st.sampled_from(["nan", "inf", "-inf", "0", "1"]),
    JUNK,
)
#: Spellings a str row accepts somewhere, a near miss and junk.
WORDS = st.one_of(
    st.sampled_from(
        ["off", "all", "full", "damp", "pace", "v1", "v2", "current",
         "v1+negotiate", "helper", "ad=3", "ad=x", *LIES, *ROLES]
    ),
    JUNK,
)


def flag_values(row):
    if row.type is bool:
        return st.sampled_from([[row.flag], ["--no-" + row.flag[2:]]])
    values = {int: INTS, float: FLOATS}.get(row.type, WORDS)
    return values.map(lambda v, flag=row.flag: [flag, str(v)])


OPTIONS = [
    *(flag_values(row) for row in OVERRIDES),
    INTS.map(lambda v: ["--seed", str(v)]),
    INTS.map(lambda v: ["--jobs", str(v)]),
    st.sampled_from(["all", "ad=0", "ad=-1", "ad=", "none"]).map(
        lambda v: ["--trace", v]
    ),
    st.just(["--smoke"]),
]


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(["all", "no_such_table", *EXPERIMENTS]))
    chosen = draw(st.lists(st.sampled_from(OPTIONS), max_size=4, unique_by=id))
    argv = ["experiments", "run", name]
    for option in chosen:
        argv += draw(option)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_no_experiments_run_argv_ends_in_a_traceback(argv, tmp_path_factory):
    runs = tmp_path_factory.mktemp("runs")
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.harness.experiments.ExperimentSession", StubSession)
        for name, exp in EXPERIMENTS.items():
            if not exp.has_cells:
                mp.setitem(
                    EXPERIMENTS, name, dataclasses.replace(exp, tabulate=stub_tabulate)
                )
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, "--runs-dir", str(runs)])
            except CellWouldRun:
                return
            except SystemExit as exit_:  # argparse's own usage errors
                code = exit_.code
    assert code in (0, 2), argv
    if code == 2:
        assert "error: " in stderr.getvalue(), argv
        assert "Traceback" not in stderr.getvalue(), argv

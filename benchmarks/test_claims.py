"""The paper's table and figure claims, one benchmark per RUNNERS row.

Each row of :data:`repro.harness.reproduce.RUNNERS` runs its experiment,
returns the lines ``repro figure <id>`` prints and judges every shape
claim the paper makes for it; the claims themselves are the rows'
docstrings.  This module times each row once, prints its lines and
asserts its verdict.
"""

import pytest
from bench_util import print_header, run_once

from repro.harness.reproduce import RUNNERS


@pytest.mark.parametrize("exp_id", list(RUNNERS))
def test_claim(benchmark, exp_id):
    headline, ok, lines = run_once(benchmark, RUNNERS[exp_id])
    print_header("%s: %s" % (exp_id, headline))
    print("\n".join(lines))
    assert ok, "%s claim does not hold: %s" % (exp_id, headline)

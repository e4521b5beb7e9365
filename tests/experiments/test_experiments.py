"""Every experiment module runs on the tiny study and reports sanely.

These are the repo's end-to-end reproduction tests: each experiment's
``run`` executes the full pipeline, ``format()`` renders the table/series,
and the experiment's shape checks against the paper's claims pass (with
small-sample exceptions noted inline).
"""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, Check, format_checks
from repro.experiments.common import ascii_table


@pytest.fixture(scope="module", params=sorted(EXPERIMENTS))
def experiment_result(request, tiny_study):
    module = EXPERIMENTS[request.param]
    return request.param, module.run(tiny_study)


def test_format_renders(experiment_result):
    name, result = experiment_result
    text = result.format()
    assert isinstance(text, str) and len(text) > 40


def test_checks_structured(experiment_result):
    name, result = experiment_result
    checks = result.checks()
    assert checks and all(isinstance(c, Check) for c in checks)
    rendered = format_checks(checks)
    assert rendered.count("\n") == len(checks) - 1


# Checks that are statistically fragile at the tiny test scale; they are
# asserted at benchmark scale by the harness instead.
_SCALE_SENSITIVE = {
    ("fig3", "Zipf-Mandelbrot approximates every sample (KS < 0.05)"),
    ("fig3", "distribution is heavy-tailed (degrees span 8+ octaves)"),
    ("fig4", "below threshold the overlap tracks log2(d)/log2(N_V^(1/2))"),
    ("fig6", "modified Cauchy describes the whole grid (median max-resid < 0.16)"),
    ("fig6", "curves peak at their sample's coeval month (±1)"),
    ("fig7", "1 is a typical alpha (grand mean within [0.7, 1.4])"),
    ("fig8", "drop rises toward ~50% in the mid-brightness band"),
    ("fig8", "drop declines again at the bright end"),
    ("scaling", "span covers at least 5 octaves of N_V"),
    ("consistency", "the Fig 5 alpha estimate is bootstrap-stable (CI width < 1.5)"),
    ("ablation", "half norm fits the correlation tail competitively with L2"),
    ("ablation", "constant-packet windows stabilize unique-source counts"),
}


def test_paper_claims_hold(experiment_result):
    name, result = experiment_result
    failing = [
        c
        for c in result.checks()
        if not c.ok and (name, c.claim) not in _SCALE_SENSITIVE
    ]
    assert not failing, "\n" + format_checks(failing)


def test_ascii_table_alignment():
    text = ascii_table(["a", "long-header"], [[1, 2.5], ["xx", 3]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert len({len(l) for l in lines}) == 1  # all rows same width

"""Acceptance gate: one test per criterion, each at its stated limit.

Every check is exact arithmetic.  Criterion 7 carries a clause that is
mathematically unattainable on any admissible realization (the two block
volume elements of the rank-(2,3) sum cannot be scalar; see the README and
the failure message); it is asserted as stated and is expected to be red.

The criteria run once per session, through the `paper_reports` fixture of
conftest.py; each test reads its criterion's report from that run.
"""


def _assert_report(rep, limit_s):
    line = f"criterion {rep.number} {rep.name}: " \
           f"{'PASS' if rep.passed else 'FAIL'} ({rep.elapsed:.2f}s)"
    print(line)
    assert rep.elapsed < limit_s, f"{line}: over the {limit_s}s budget"
    assert rep.passed, "\n".join([line] + rep.failures)


def test_criterion_1_table_reproduction(paper_reports):
    _assert_report(paper_reports[0], limit_s=1.0)


def test_criterion_2_axiom_suite(paper_reports):
    _assert_report(paper_reports[1], limit_s=30.0)


def test_criterion_3_canonical_isomorphisms(paper_reports):
    _assert_report(paper_reports[2], limit_s=60.0)


def test_criterion_4_non_isomorphism(paper_reports):
    _assert_report(paper_reports[3], limit_s=5.0)


def test_criterion_5_surjectivity(paper_reports):
    _assert_report(paper_reports[4], limit_s=60.0)


def test_criterion_6_strongly_bracket_generating(paper_reports):
    _assert_report(paper_reports[5], limit_s=30.0)


def test_criterion_7_direct_sums(paper_reports):
    """Expected to FAIL on the volume-element clause.

    The stated expectation (block volume elements exactly +Id and -Id on
    n_{2,3}(1,1)) contradicts admissibility: for center rank 1 mod 4 the
    volume element is an anti-isometry, so a scalar action would force a
    degenerate metric.  The attainable parts of this criterion are asserted
    separately below and in test_sums.py.
    """
    _assert_report(paper_reports[6], limit_s=10.0)


def test_criterion_7_attainable_clauses(paper_reports):
    rep = paper_reports[6]
    assert rep.elapsed < 10.0
    volume_only = all("volume element is" in msg for msg in rep.failures)
    assert volume_only, "\n".join(rep.failures)


def test_criterion_8_general_h_type(paper_reports):
    _assert_report(paper_reports[7], limit_s=10.0)

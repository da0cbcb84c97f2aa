"""Top-level acceptance gate: one test and one printed verdict line per
criterion.  Each test delegates to holderlab.acceptance so the CLI's
all-acceptance command and this suite can never drift apart."""

from holderlab import acceptance


def _run(criterion, capsys):
    res = criterion()
    with capsys.disabled():
        print(acceptance.format_result_line(res))
    assert res.passed, (res.checks, res.details)
    return res


def test_acceptance_1_resonant_quotient_identity(capsys):
    res = _run(acceptance.resonant_quotient_identity, capsys)
    assert res.details["worst_relative_error"] <= 1e-12


def test_acceptance_2_trace_trichotomy(capsys):
    res = _run(acceptance.trace_trichotomy, capsys)
    assert res.details["tail_infimum_alpha_05"] >= 1.998


def test_acceptance_3_interior_dyadic_blowup(capsys):
    _run(acceptance.interior_dyadic_blowup, capsys)


def test_acceptance_4_holder_constant(capsys):
    res = _run(acceptance.holder_constant, capsys)
    assert res.details["estimated_seminorm"] <= res.details["seminorm_limit"]


def test_acceptance_5_geometry_identities(capsys):
    _run(acceptance.geometry_identities, capsys)


def test_acceptance_6_divergence_free_mollifier(capsys):
    res = _run(acceptance.divergence_free_mollifier, capsys)
    assert max(res.details["max_divergences"]) <= acceptance.MAX_DIVERGENCE


def test_acceptance_7_pressure_solver(capsys):
    res = _run(acceptance.pressure_solver, capsys)
    assert res.details["ratio_spread"] <= 5.0


def test_acceptance_8_trace_dichotomy(capsys):
    res = _run(acceptance.trace_dichotomy, capsys)
    assert res.details["modified_wall_trace"] <= 1e-2


def test_acceptance_9_schauder_ratio(capsys):
    res = _run(acceptance.schauder_ratio, capsys)
    spreads = res.details["ratio_spreads"].values()
    assert all(v <= acceptance.MAX_RATIO_SPREAD for v in spreads)

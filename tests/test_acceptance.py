"""End-to-end acceptance criteria against the reference-device targets.

Each test runs one criterion from cryodrum.reproduce (the same functions
behind `cryodrum reproduce`) and prints its PASS/FAIL line; the whole suite
runs single-threaded in well under five minutes.
"""

import pytest

from cryodrum import reproduce


#: detail lines pinned verbatim: the seeded thermalization run and the
#: dephasing inversion, whose figures rest on the free-evolution moments and
#: the closed-form rate-difference curve
PINNED_DETAILS = {
    2: "fitted heating rate 20.59 Hz (target 20.5 +/- 0.6); T1 = 7.759 ms "
       "(target 7.8 +/- 5%)",
    5: "forward slope difference 0.973 Hz (target 0.98 +/- 0.02); noiseless "
       "inversion 0.09 Hz; measured-rates inversion 0.102 (+0.16/-0.072) Hz",
}


@pytest.mark.parametrize(
    "criterion", reproduce.CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, len(reproduce.CRITERIA) + 1)])
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.index}. {result.name}: {result.detail}")
    assert result.passed, result.detail
    assert result.detail == PINNED_DETAILS.get(result.index, result.detail)


def test_format_table_reports_all():
    results = [reproduce.criterion_4_squeezing_bookkeeping(),
               reproduce.criterion_7_noise_budgets()]
    table = reproduce.format_table(results)
    assert "[PASS] 4." in table
    assert "2/2 criteria passed" in table

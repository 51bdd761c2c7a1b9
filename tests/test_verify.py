import pytest

from qronos.verify import SUITE_NAMES, run_suite, suite_collapse


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_at_small_trial_counts(name):
    res = run_suite(name, trials=5, seed=11)
    assert res.failures == 0
    assert res.trials == 5
    assert res.max_dev <= res.tol or res.tol == 0.0


def test_same_seed_reproduces_max_dev_exactly():
    a = run_suite("theorem1", trials=5, seed=7)
    b = run_suite("theorem1", trials=5, seed=7)
    assert a.max_dev == b.max_dev
    assert a.failures == b.failures


def test_negative_trials_raise():
    with pytest.raises(ValueError, match="trials"):
        run_suite("lemmaC", trials=-1)


def test_zero_trials_is_a_vacuous_pass():
    res = run_suite("corollary1", trials=0)
    assert res.passed
    assert res.trials == 0 and res.failures == 0


def test_collapse_suite_small():
    res = suite_collapse(trials=5, seed=1)
    assert res.failures == 0
    assert res.max_dev == 0.0


def test_oracle_suite_reports_step_agreement():
    res = run_suite("oracle", trials=4, seed=2)
    assert res.detail["steps_checked"] > 0
    assert res.detail["steps_agreeing"] == res.detail["steps_checked"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("theorem9")


def test_result_dict_round_trip():
    res = run_suite("lemmaC", trials=3, seed=5)
    d = res.to_dict()
    assert d["name"] == "lemmaC"
    assert d["passed"] is True
    assert set(d) == {"name", "trials", "failures", "max_dev", "tol", "passed", "detail"}

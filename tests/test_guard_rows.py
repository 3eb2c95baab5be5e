"""Guard violations surface as per-trial failures, not crashes."""
import warnings

from byzsw.scenario import PRESETS, aggregate_rows, canonical_dumps, run_trial


def test_vr_guard_failure_becomes_row():
    doc = PRESETS["two_sensor_baseline"]()
    # n(eps + nu) = 30 keeps block 0 within the 2^32 bins the load allows
    doc["variable_rate"].update({"n": 40, "rounds": 1, "c_subcodebooks": 8, "nu": 0.4})
    doc["trials"] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        row = run_trial(canonical_dumps(doc), 0, "vr")
    assert row["error"]
    assert "guard" in row["error"]
    agg = aggregate_rows([row])
    assert agg["failures"] == {"EnumerationGuardError": 1}

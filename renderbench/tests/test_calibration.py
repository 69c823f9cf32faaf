"""Host calibration: the factor that rescales a run's times."""

from renderbench import common


def test_factor_is_reference_over_median_sample():
    calibration = common.Calibration()
    calibration.samples.extend([3.0e-3, 1.0e-3, 2.0e-3])
    calibration.phases.extend(["loop"] * 3)
    assert calibration.factor() == common.CALIBRATION_REF_S / 2.0e-3


def test_factor_by_phase_falls_back_to_all_samples():
    calibration = common.Calibration()
    calibration.samples.extend([1.0e-3] * 3 + [2.0e-3] * 5 + [4.0e-3])
    calibration.phases.extend(["setup"] * 3 + ["loop"] * 5 + ["other"])
    ref = common.CALIBRATION_REF_S
    assert calibration.factor("setup") == ref / 1.0e-3
    assert calibration.factor("loop") == ref / 2.0e-3
    # one sample is too few for a phase of its own
    assert calibration.factor("other") == ref / 2.0e-3


def test_sample_times_the_snippet():
    calibration = common.Calibration()
    calibration.sample()
    calibration.sample()
    assert len(calibration.samples) == 2
    assert all(s > 0.0 for s in calibration.samples)


def test_burst_spaces_its_samples():
    calibration = common.Calibration()
    calibration.phase = "setup"
    sleeps = []
    calibration.burst(4, 0.05, sleep=sleeps.append)
    assert sleeps == [0.05] * 3
    assert calibration.phases == ["setup"] * 4
    assert len(calibration.samples) == 4

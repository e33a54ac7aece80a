"""The package namespace: the public names and the modules that define them."""

import importlib
import inspect

import sfcaudio
from sfcaudio import curves, equivariance, imaging, locality, signal

MODULES = (curves, locality, signal, imaging, equivariance)

PUBLIC = [
    "AudioClip", "CenterParams", "CurveKind", "CurveMap", "DEFAULT_SAMPLE_RATE",
    "EquivarianceWitness", "GapStats", "Kernel", "LemmaCell", "LemmaSweep",
    "LocalityReport", "MAX_ORDER", "MixupParams", "RawFormatError", "SfcImage",
    "ShiftParams", "WavChannelError", "WavEncodingError", "WavError", "WavFormatError",
    "WavSampleRateError", "WavTruncatedError", "__version__", "build_curve", "center",
    "check_equivariance", "circular_shift", "compare_curves", "decode",
    "draw_mixup_lambdas", "encode", "export_pgm", "export_raw", "fold", "get_curve",
    "grid_distance", "import_raw", "index_to_point", "jump_positions", "load_wav",
    "mixup", "point_to_index", "random_shift", "replay_witness", "reports_to_csv",
    "reports_to_text", "save_wav", "strided_conv", "sweep_lemma", "sweep_to_text",
    "translate", "unfold", "witnesses_to_csv", "worst_case_profile",
]


def test_public_names_are_pinned_and_bound_to_their_definitions():
    assert sorted(sfcaudio.__all__) == PUBLIC
    for name in sfcaudio.__all__:
        obj = getattr(sfcaudio, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert sfcaudio.MAX_ORDER is curves.MAX_ORDER
    assert sfcaudio.DEFAULT_SAMPLE_RATE is signal.DEFAULT_SAMPLE_RATE
    assert isinstance(sfcaudio.__version__, str)


def test_each_public_name_is_declared_once_by_the_module_that_defines_it():
    declared = [name for module in MODULES for name in module.__all__]
    assert sorted(declared) == sorted(set(sfcaudio.__all__) - {"__version__"})
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"
    # format constants stay with their modules, outside the package namespace
    for module, name in ((imaging, "RAW_MAGIC"), (imaging, "RAW_HEADER"),
                         (locality, "CSV_HEADER"), (equivariance, "WITNESS_CSV_HEADER")):
        assert hasattr(module, name) and not hasattr(sfcaudio, name), name

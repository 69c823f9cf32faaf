"""Suite-wide options.

``--native-builtins=off`` runs every test with the native builtin
library forced unavailable, so batch kernels use the NumPy noise
mirrors and the lane-at-a-time builtins (the reference path of hosts
without a C compiler).  Tests that exercise the native loops
themselves skip.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--native-builtins", choices=("auto", "off"), default="auto",
        help="'off' forces the NumPy/lane-at-a-time builtin fallback",
    )


def pytest_configure(config):
    if config.getoption("native_builtins") == "off":
        from repro.runtime import native

        native.TIER = native.NativeBuiltins.disabled(
            "pytest --native-builtins=off"
        )

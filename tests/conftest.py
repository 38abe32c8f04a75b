"""Every warning raised while these tests are collected or run is an error,
so that a dropped exception (a `PytestUnraisableExceptionWarning`) or a
deprecation fails the run instead of scrolling by.

One deprecation is let through: libcst, which Hypothesis imports to write
the patch of a failing `@given` test, warns that `mypy_extensions.TypedDict`
is deprecated.  As an error, that warning aborts the whole run with
`INTERNALERROR` in place of reporting the failure.

The filter is set here rather than in `pyproject.toml`, whose pytest
settings `perfbench/tests` shares: one of those tests leaves a pipe of a
killed child process unclosed, which warns when the garbage collector
frees it.
"""


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error")
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )

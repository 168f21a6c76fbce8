"""The test settings themselves, under pyproject.toml's filterwarnings: a
failing hypothesis test is reported as a failure, not as an INTERNALERROR,
and a test that leaks an open file fails."""

import pathlib
import sys

pytest_plugins = ["pytester"]

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _run(pytester, name: str):
    """Run the test file `name` in a fresh interpreter under the repository's
    pytest settings, in development mode as the CI runs tier-1."""
    return pytester.run(sys.executable, "-X", "dev", "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider", name)


def test_failing_hypothesis_test_is_reported_as_a_failure(pytester):
    pytester.makepyfile(
        test_fails="""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 10
        """
    )
    result = _run(pytester, "test_fails.py")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*1 failed*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()


def test_a_leaked_open_file_fails_its_test(pytester):
    pytester.makepyfile(
        test_leaks="""
        def test_leaks():
            open(__file__).read()


        def test_closes():
            with open(__file__) as fh:
                fh.read()
        """
    )
    result = _run(pytester, "test_leaks.py")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*ResourceWarning*", "*1 failed, 1 passed*"])

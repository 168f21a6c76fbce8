"""The test settings themselves: under pyproject.toml's filterwarnings, a
failing hypothesis test is reported as a failure, not as an INTERNALERROR."""

import pathlib

pytest_plugins = ["pytester"]

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_as_a_failure(pytester):
    pytester.makepyfile(
        test_fails="""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 10
        """
    )
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider", "test_fails.py")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*1 failed*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()

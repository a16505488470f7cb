"""The suite's own pytest settings: a failing test is reported, not an internal error."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_given_test_is_a_failure_and_later_tests_run(pytester):
    """On a failure Hypothesis imports libcst to write its patch, and that import
    warns; under filterwarnings = error, a warning there stopped the whole run."""
    pytester.makepyfile(test_given="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    # a fresh interpreter, so that libcst is imported (and warns) inside the run
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "--rootdir", str(pytester.path),
                                           "-p", "no:cacheprovider", "test_given.py")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()

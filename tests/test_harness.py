"""The test session itself, as CI runs it."""

from pathlib import Path


def test_failing_hypothesis_test_leaves_the_session_running(pytester, capsys):
    # under -W error, a failing example once ended the session with
    # INTERNALERROR: the hypothesis plugin's report hook touches
    # mypy_extensions.TypedDict, which warns. The next test must still run
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.just(1))
        def test_fails(x):
            assert x == 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest("-W", "error", "-p", "no:cacheprovider")
    # pytester echoes the inner session's report, failure and all; under the
    # ini's -s it would reach the outer session's output as if its own
    capsys.readouterr()
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()

import subprocess
import sys

import pytest

import weylgraded


def test_public_names_resolve_once():
    names = weylgraded.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(weylgraded, name)]
    assert missing == []
    assert set(names) <= set(dir(weylgraded))


def test_import_leaves_the_command_line_unloaded():
    # run in a fresh interpreter: this test process may have imported the cli already
    code = (
        "import sys, weylgraded; "
        "assert 'weylgraded.cli' not in sys.modules; "
        "assert 'weylgraded.verification' not in sys.modules; "
        "assert weylgraded.run_command is weylgraded.cli.run_command; "
        "assert weylgraded.parse_expression is weylgraded.cli.parse_expression"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_unknown_names_still_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylgraded.no_such_name

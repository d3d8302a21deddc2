import doctest
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs_as_written():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0

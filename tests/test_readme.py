import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> list[str]:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_readme_library_example_values():
    # run the example line by line; a line ending in "# value" must
    # evaluate to that literal
    namespace: dict = {}
    checked = 0
    for line in _library_example():
        claim = re.fullmatch(r"(.*?)\s+# (.*)", line)
        if claim is None:
            exec(line, namespace)
            continue
        code, expected = claim.groups()
        assert eval(code, namespace) == ast.literal_eval(expected), line
        checked += 1
    assert checked == 5

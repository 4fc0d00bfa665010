from pathlib import Path

import sphervar

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_its_comments(capsys):
    """The quick start runs, and prints exactly the lines that its
    trailing `# ...` comments show."""
    code = quick_start_block()
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_every_public_name_resolves():
    # a star import raises AttributeError on a name that does not resolve
    namespace = {}
    exec("from sphervar import *", namespace)
    assert set(sphervar.__all__) <= namespace.keys()

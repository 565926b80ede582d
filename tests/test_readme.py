"""README's library quick tour runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> tuple[dict, list[tuple[str, str]]]:
    """Run the python block's statements; return its namespace and the
    (expression, commented result) pairs of its expression lines."""
    block = README.read_text().split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace: dict = {}
    results, pending = [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not pending and comment:
            try:
                compile(code, "README.md", "eval")
            except SyntaxError:
                pass
            else:
                results.append((code.strip(), comment.strip()))
                continue
        pending.append(line)
        try:
            statement = compile("\n".join(pending), "README.md", "exec")
        except SyntaxError:
            continue  # an unfinished statement, such as the parenthesised import
        exec(statement, namespace)
        pending = []
    assert not pending, pending
    return namespace, results


def test_readme_quick_tour_results():
    namespace, results = _quick_tour()
    assert [comment for _, comment in results] == [
        "{'R': 13, 'A': 10, 'BorC': 4}",
        "Fraction(5, 12)",
        "Fraction(5, 3)",
    ]
    for expression, comment in results:
        assert repr(eval(expression, namespace)) == comment, expression

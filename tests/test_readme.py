import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_example_runs(capsys):
    # the example is the documentation of the stage signatures, so it runs here
    with open(README) as fh:
        code = re.search(r"## Library\n\n```python\n(.*?)```", fh.read(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    achieved, lower, upper, certified = capsys.readouterr().out.split()
    assert float(lower) <= int(achieved) <= float(upper)
    assert certified == "True"

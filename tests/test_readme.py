"""The README's library tour runs as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run_and_the_solve_converges():
    # the ```python blocks in order, in one namespace, as a reader would
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, README, "exec"), namespace)
    result = namespace["result"]
    assert result.converged, result.message
    assert result.iterations < 2000

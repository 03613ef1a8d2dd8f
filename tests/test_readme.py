import contextlib
import io
import re
from pathlib import Path

import pytest

from fracspectral import gaussian_deriv

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_and_prints_the_half_order_value():
    # README's one python block: the engine, the closed form and the
    # quadrature each print D^0.5 e^{-x^2} at x = 0
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    # the engine's sample prints as a complex number, the other two as floats
    values = [complex(line) for line in printed.getvalue().splitlines()]
    assert values == pytest.approx([gaussian_deriv(0.5, 0.0)] * 3, rel=0, abs=1e-12)

"""README quotes each tolerance with the value of its module constant.

Every number README writes next to a backticked module constant, before
it ("1e-8 (`partition.AGREEMENT_DEV`)") or after it ("`BRANCH_TOL`
(10⁻⁹)", "`FD_STEP`, 2·10⁻⁵"), must equal that constant.  The package's
line count is the number its quoted command prints.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import rectising

README = Path(__file__).resolve().parents[1] / "README.md"

_SUPERSCRIPT = str.maketrans("⁻⁰¹²³⁴⁵⁶⁷⁸⁹", "-0123456789")
_NUMBER = (r"(?:\d+(?:\.\d+)?e[-+]?\d+"
           r"|(?:\d+(?:\.\d+)?·)?10[⁻⁰¹²³⁴⁵⁶⁷⁸⁹]+)")
_CONSTANT = r"`(?:(\w+)\.)?([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)`"
_PAIRS = (re.compile(rf"({_NUMBER})\s*\(\s*{_CONSTANT}"),
          re.compile(rf"{_CONSTANT}\s*[(,]\s*({_NUMBER})"))


def _value(number):
    """A README number as a float: 1e-9, 10⁻⁹ or 2·10⁻⁵."""
    if "e" in number:
        return float(number)
    mantissa, _, power = number.rpartition("10")
    power = power.translate(_SUPERSCRIPT)
    return float(f"{mantissa.rstrip('·') or 1}e{power}")


def _quoted():
    """(module, name, number) for every number README writes next to a
    backticked constant, the text's line breaks read as spaces."""
    text = " ".join(README.read_text().split())
    before, after = _PAIRS
    return ([(m[2], m[3], m[1]) for m in before.finditer(text)]
            + [(m[1], m[2], m[3]) for m in after.finditer(text)])


def _constant(module, name):
    """The value of ``name`` in ``rectising.module``, or in the one
    module of the package that defines it."""
    if module:
        return getattr(importlib.import_module(f"rectising.{module}"), name)
    values = {getattr(mod, name) for mod in (
        importlib.import_module(f"rectising.{info.name}")
        for info in pkgutil.iter_modules(rectising.__path__)
        if not info.name.startswith("_")) if name in vars(mod)}
    assert len(values) == 1, f"{name}: {values or 'defined nowhere'}"
    return values.pop()


def test_readme_quotes_tolerances():
    quoted = _quoted()
    assert quoted, "README quotes no tolerance next to a constant"
    for module, name, number in quoted:
        assert _value(number) == _constant(module, name), (name, number)


def test_readme_line_count_is_what_wc_prints():
    # "`src/rectising` holds N lines of Python (`wc -l src/rectising/*.py`)"
    text = " ".join(README.read_text().split())
    quoted = re.findall(r"`src/rectising` holds (\d+) lines of Python "
                        r"\(`wc -l src/rectising/\*\.py`\)", text)
    src = README.parent / "src" / "rectising"
    lines = sum(p.read_bytes().count(b"\n") for p in src.glob("*.py"))
    assert [int(n) for n in quoted] == [lines]

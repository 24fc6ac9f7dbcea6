"""The CLI's bytes, pinned: ``cli.main`` runs in-process over a fixed list of
argv cases, and the sha256 of its stdout and stderr, its exit code and the
sha256 of any SVG it writes must equal the table in ``data/cli_bytes.json``.

Paths are normalised: ``{scripts}`` stands for the script corpus and
``{tmp}`` for a scratch directory holding the profile file and the SVG
output, both in the argv and in the captured text.  After a change that is
meant to alter these bytes, rewrite the table with
``PYTHONPATH=src python tests/test_cli_bytes.py --write`` and say why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from indivisibles.cli import main

from conftest import DATA_DIR, SCRIPTS_DIR

TABLE = DATA_DIR / "cli_bytes.json"
PROFILE = "name square\npoint 1 0\npoint 2 0\npoint 2 1\npoint 1 1\n"


def _cases():
    cases = {}
    for script in sorted(p.name for p in SCRIPTS_DIR.glob("*.igeo")):
        for fmt in ("human", "report"):
            cases[f"check-{script}-{fmt}"] = ["check", f"{{scripts}}/{script}", "--format", fmt]
    for shape in ("disk", "sphere", "cone", "hoof"):
        cases[f"bounds-{shape}-default"] = ["bounds", "--shape", shape]
        cases[f"bounds-{shape}-fine"] = [
            "bounds", "--shape", shape, "--r", "0.7", "--h", "2.3", "--slices", "40000",
        ]
    for target in ("disk", "sphere", "hoof", "torus"):
        cases[f"oracle-{target}-mc"] = ["oracle", "--target", target, "--samples", "40000", "--seed", "7"]
        cases[f"oracle-{target}-riemann"] = [
            "oracle", "--target", target, "--method", "riemann", "--cells", "40000",
        ]
    cases["guldin"] = ["guldin", "{tmp}/square.profile"]
    cases["guldin-verify"] = ["guldin", "{tmp}/square.profile", "--verify", "--samples", "40000"]
    cases["svg-unroll"] = ["svg", "--construction", "unroll", "--r", "0.37", "--n", "24", "--out", "{tmp}/out.svg"]
    cases["svg-bounds"] = [
        "svg", "--construction", "bounds", "--shape", "hoof", "--slices", "20", "--out", "{tmp}/out.svg",
    ]
    cases["svg-guldin"] = [
        "svg", "--construction", "guldin", "--profile", "{tmp}/square.profile", "--out", "{tmp}/out.svg",
    ]
    return cases


CASES = _cases()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, tmp: Path, capture) -> dict:
    """Run one case; ``capture()`` returns the (stdout, stderr) written since the last call."""
    (tmp / "square.profile").write_text(PROFILE)
    svg = tmp / "out.svg"
    svg.unlink(missing_ok=True)
    places = {"{scripts}": str(SCRIPTS_DIR), "{tmp}": str(tmp)}
    real = []
    for arg in argv:
        for key, path in places.items():
            arg = arg.replace(key, path)
        real.append(arg)
    try:
        code = main(real)
    except SystemExit as exc:
        code = exc.code
    out, err = capture()

    def normal(text):
        for key, path in places.items():
            text = text.replace(path, key)
        return _digest(text.encode())

    return {
        "code": code,
        "stdout": normal(out),
        "stderr": normal(err),
        "svg": _digest(svg.read_bytes()) if svg.exists() else None,
    }


def test_the_table_covers_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_are_pinned(name, tmp_path, capsys):
    def capture():
        got = capsys.readouterr()
        return got.out, got.err

    assert _run(CASES[name], tmp_path, capture) == json.loads(TABLE.read_text())[name]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import contextlib
    import io
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            out, err = io.StringIO(), io.StringIO()

            def capture():
                return out.getvalue(), err.getvalue()

            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                table[name] = _run(CASES[name], Path(tmp), capture)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

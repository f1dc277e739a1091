import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_run_cleanly():
    # the demos call the public API the way a reader would, so a signature
    # change that breaks one shows here
    assert len(DEMOS) == 4
    for path in DEMOS:
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            assert exc.code in (None, 0), f"{path.name} exited with {exc.code}"

import pytest

from conftest import SRC, run_python

DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    # run in tmp_path so that files a demo writes (demo 05's SVG) stay out
    # of the checkout
    done = run_python(str(demo), cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr

import importlib.util

from conftest import REPO

spec = importlib.util.spec_from_file_location("snapshot_diff", REPO / "scripts" / "snapshot_diff.py")
snapshot_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(snapshot_diff)

BUNDLE = "k 2\nsup_G {g}\nsup_v {v0} {v1}\n"


def write_tree(root, **files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def bundle(g=1.5, v0=0.25, v1=3.0):
    return BUNDLE.format(g=g.hex(), v0=v0.hex(), v1=v1.hex())


def test_identical_trees_exit_0(tmp_path, capsys):
    a = write_tree(tmp_path / "a", **{"x.txt": bundle(), "y.json": "{}\n"})
    b = write_tree(tmp_path / "b", **{"x.txt": bundle(), "y.json": "{}\n"})
    assert snapshot_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical\n"


def test_float_moves_are_counted_per_key(tmp_path, capsys):
    up = 3.0 + 2 * 2.0 ** -51   # two ulp above 3
    a = write_tree(tmp_path / "a", **{"x.txt": bundle(), "z.txt": bundle()})
    b = write_tree(tmp_path / "b", **{"x.txt": bundle(v1=up), "z.txt": bundle(g=1.5 + 2.0 ** -52)})
    assert snapshot_diff.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"sup_G: 1 values moved, largest relative move {2.0 ** -52 / (1.5 + 2.0 ** -52):.3g}",
        f"sup_v: 1 values moved, largest relative move {(up - 3.0) / up:.3g}",
    ]


def test_any_other_difference_exits_1(tmp_path):
    a = write_tree(tmp_path / "a", **{"x.txt": bundle(), "y.json": '{"sup_G": 1.5}\n'})
    for name, files in {
        "decimal": {"x.txt": bundle(), "y.json": '{"sup_G": 1.6}\n'},
        "key": {"x.txt": bundle().replace("k 2", "k 3"), "y.json": '{"sup_G": 1.5}\n'},
        "missing": {"x.txt": bundle()},
        "lines": {"x.txt": bundle() + "extra\n", "y.json": '{"sup_G": 1.5}\n'},
    }.items():
        assert snapshot_diff.main([str(a), str(write_tree(tmp_path / name, **files))]) == 1

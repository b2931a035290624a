import importlib.util
import struct

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
        f"sup_G: 1 values moved, largest relative move {2.0 ** -52 / (1.5 + 2.0 ** -52):.3g}, "
        f"largest absolute move {2.0 ** -52:.3g}",
        f"sup_v: 1 values moved, largest relative move {(up - 3.0) / up:.3g}, "
        f"largest absolute move {up - 3.0:.3g}",
    ]


def test_any_other_difference_exits_1(tmp_path):
    base = {"x.txt": bundle(), "y.json": '{"sup_G": 1.5}\n', "r.csv": "re,ok\n0.5,yes\n"}
    a = write_tree(tmp_path / "a", **base)
    for name, change in {
        "json key": {"y.json": '{"sup_H": 1.5}\n'},
        "json int": {"y.json": '{"sup_G": 2}\n'},
        "csv text": {"r.csv": "re,ok\n0.5,no\n"},
        "key": {"x.txt": bundle().replace("k 2", "k 3")},
        "missing": {"y.json": None},
        "lines": {"x.txt": bundle() + "extra\n"},
    }.items():
        files = {f: text for f, text in {**base, **change}.items() if text is not None}
        assert snapshot_diff.main([str(a), str(write_tree(tmp_path / name, **files))]) == 1


def exact(*values):
    """A bundle line's exact array form for a column of complex values."""
    return f"{len(values)}x1x1 " + struct.pack(f"={2 * len(values)}d", *(
        part for v in values for part in (v.real, v.imag))).hex()


def test_decimal_and_exact_array_moves_are_counted_per_key(tmp_path, capsys):
    a = write_tree(tmp_path / "a", **{
        "s.json": '{"sup_G": 0.25, "sup_v": [1.0, 2.0], "k": 3}\n',
        "r.csv": "re,residual\n0.5,1e-16\n0.25,3e-17\n",
        "b.txt": f"G {exact(1 + 2j, 3)}\n",
    })
    b = write_tree(tmp_path / "b", **{
        "s.json": '{"sup_G": 0.25, "sup_v": [1.0, 2.5], "k": 3}\n',
        "r.csv": "re,residual\n0.5,2e-16\n0.25,4e-17\n",
        "b.txt": f"G {exact(1 + 2.5j, 3)}\n",
    })
    assert snapshot_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "G: 1 values moved, largest relative move 0.2, largest absolute move 0.5",
        "residual: 2 values moved, largest relative move 0.5, largest absolute move 1e-16",
        "sup_v: 1 values moved, largest relative move 0.2, largest absolute move 0.5",
    ]


def test_an_exact_array_of_another_shape_exits_1(tmp_path, capsys):
    a = write_tree(tmp_path / "a", **{"b.txt": f"G {exact(1j)}\n"})
    b = write_tree(tmp_path / "b", **{"b.txt": f"G {exact(1j, 0)}\n"})
    assert snapshot_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.startswith("differs: b.txt: 'G 1x1x1")

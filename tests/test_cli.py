import json
import pathlib

from trop.cli import main, parse_set_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval(capsys):
    code, out = run(capsys, "eval", "-f", "x^2+3*x+6", "-a", "3")
    assert code == 0 and json.loads(out) == "6v"
    code, out = run(capsys, "eval", "-f", "x^2+3*x+6", "-a", "0")
    assert json.loads(out) == "6"


def test_eval_layered(capsys):
    code, out = run(capsys, "eval", "--layered", "-f", "x^2+x+0", "-a", "0")
    assert code == 0 and json.loads(out) == "0@3"


def test_classify_and_shell(capsys):
    code, out = run(capsys, "classify", "-f", "x^2+3*x+6")
    data = json.loads(out)
    assert [t["class"] for t in data["terms"]] == [
        "essential",
        "quasi-essential",
        "essential",
    ]
    code, out = run(capsys, "shell", "-f", "2*x1^2+2*x2^2+x1*x2+0")
    assert json.loads(out)["shell"] == "2*x1^2 + 2*x2^2 + 0"


def test_locus_json(capsys):
    code, out = run(capsys, "locus", "-f", "x1+x2+0")
    data = json.loads(out)
    assert data["vertices"] == [[[0, 1], [0, 1]]]
    assert len(data["edges"]) == 3


def test_intersect(capsys):
    code, out = run(capsys, "intersect", "-f", "x1+1*x2+1", "-f", "x1*x2+x1+0")
    data = json.loads(out)
    assert {"v": [0, 1]} in data["edges"]


def test_equal_verdicts(capsys):
    code, out = run(
        capsys, "equal", "-X", "plane",
        "-f", "x1^2+0v*x1*x2+x2^2", "-g", "x1^2+x2^2",
    )
    assert code == 0 and json.loads(out)["equal"] is True
    code, out = run(capsys, "equal", "-X", "plane", "-f", "x1+x2", "-g", "x1")
    assert code == 1 and json.loads(out)["equal"] is False


def test_admissible_verdicts(capsys):
    code, out = run(
        capsys, "admissible", "-X", '{"mode":"corner","polys":["x1+x2+0"]}'
    )
    assert code == 0 and json.loads(out)["verdict"] == "admissible"
    code, out = run(
        capsys,
        "admissible",
        "-X",
        '{"mode":"corner","polys":["x1+x2+0","x1+x2+1"]}',
    )
    data = json.loads(out)
    assert code == 1 and data["verdict"] == "inadmissible"
    assert data["witness"] == ["x1", "x1 + 1"]


def test_admissible_with_witness_file(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps([["x", "x + -1"]]))
    code, out = run(
        capsys,
        "admissible",
        "-X",
        '{"mode":"total","polys":["x^2+2v*x+1"]}',
        "--witnesses",
        f"@{wfile}",
    )
    data = json.loads(out)
    assert code == 1 and data["witness"] == ["x", "x + -1"]


def test_layered_verb(capsys):
    code, out = run(capsys, "layered", "-f", "x1+x2+0")
    data = json.loads(out)
    assert sorted(data["layers"].values()) == [2, 2, 2, 3]
    code, out = run(capsys, "layered", "-f", "x^2+0", "-f", "x^2+x+0", "-a", "0")
    data = json.loads(out)
    assert data["layers"] == {"x^2+0": "2", "x^2+x+0": "3"}


def test_dim_verb(capsys):
    code, out = run(capsys, "dim", "-X", '{"mode":"corner","polys":["x1+x2+0"]}')
    data = json.loads(out)
    assert code == 0 and data["dimension"] == 1 and data["report"]["ok"]
    code, out = run(capsys, "dim", "-X", "plane")
    assert json.loads(out)["dimension"] == 2


def test_render_figure(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _ = run(capsys, "render", "--figure", "square", "--svg", str(out_path))
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / "square.svg"
    assert out_path.read_text() == golden.read_text()


def test_render_set_spec(tmp_path, capsys):
    out_path = tmp_path / "line.svg"
    code, _ = run(
        capsys, "render", "-X", '{"mode":"corner","polys":["x1+x2+0"]}',
        "--svg", str(out_path), "--viewport=-2,2,-2,2",
    )
    assert code == 0 and "svg" in out_path.read_text()


def test_fiber_and_erase_specs():
    X = parse_set_spec('{"fiber":"2,3"}')
    assert X.contains_mags((2, 3)) and not X.contains_mags((0, 0))
    Y = parse_set_spec('{"mode":"corner","polys":["x1+x2+0"],"erase":[[0,0,1]]}')
    assert not Y.contains_mags((2, 2)) and Y.contains_mags((0, 0))
    P = parse_set_spec('{"pair":["x1+x2","x1+x2+0"]}')
    assert P.contains_mags((1, 1)) and not P.contains_mags((-1, -1))


def test_error_exit_codes(capsys):
    code = main(["eval", "-f", "not a poly", "-a", "0"])
    assert code == 2
    code = main(["render", "--figure", "nope", "--svg", "-"])
    assert code == 2


def test_unsupported_inputs_exit_2(capsys):
    # arity-3 sets have no exact carrier; an erase index must name a real
    # condition and term pair.  Both are errors (exit 2), never a traceback.
    arity3 = '{"mode":"corner","polys":["x1+x2+x3+0"]}'
    for argv in (
        ["dim", "-X", arity3],
        ["admissible", "-X", arity3],
        ["admissible", "-X", '{"mode":"corner","polys":["x1+x2+0"],"erase":[[5,0,1]]}'],
        ["equal", "-X", '{"mode":"corner","polys":["x1+x2+0"],"erase":[[0,0,3]]}',
         "-f", "x1", "-g", "x2"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("trop: ")

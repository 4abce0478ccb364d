import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gf17_example as ex
import rsdec.linalg
from rsdec.cli import main, read_word_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_received(tmp_path, ints=None, name="r.word"):
    path = tmp_path / name
    values = ints if ints is not None else ex.RECEIVED
    path.write_text("17\n" + " ".join(str(v) for v in values) + "\n")
    return str(path)


def test_encode_golden(tmp_path, capsys):
    out = tmp_path / "c.word"
    code, stdout, _ = run(capsys, "encode", "--q", "17", "--n", "16", "--k", "4", "--alpha", "3", "--f", "1,1,1,1", "-o", str(out))
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "17"
    assert [int(v) for v in lines[1].split()] == ex.CODEWORD


def test_encode_to_stdout(capsys):
    code, stdout, _ = run(capsys, "encode", "--q", "17", "--n", "16", "--k", "4", "--f", "1,1,1,1")
    assert code == 0
    data = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    assert data[0] == "17"
    assert [int(v) for v in data[1].split()] == ex.CODEWORD


def test_corrupt_with_explicit_error(tmp_path, capsys):
    cw = tmp_path / "c.word"
    cw.write_text("17\n" + " ".join(map(str, ex.CODEWORD)) + "\n")
    ew = tmp_path / "e.word"
    ew.write_text("17\n" + " ".join(map(str, ex.ERROR)) + "\n")
    out = tmp_path / "r.word"
    code, _, _ = run(capsys, "corrupt", "--in", str(cw), "--e", str(ew), "-o", str(out))
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert [int(v) for v in lines[1].split()] == ex.RECEIVED


def test_corrupt_random_weight(tmp_path, capsys):
    cw = tmp_path / "c.word"
    cw.write_text("17\n" + " ".join(map(str, ex.CODEWORD)) + "\n")
    code1, out1, _ = run(capsys, "corrupt", "--in", str(cw), "--weight", "5", "--seed", "11")
    code2, out2, _ = run(capsys, "corrupt", "--in", str(cw), "--weight", "5", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    received = [int(v) for v in [ln for ln in out1.splitlines() if ln and not ln.startswith("#")][1].split()]
    assert sum(1 for a, b in zip(received, ex.CODEWORD) if a != b) == 5


def test_corrupt_rejects_an_error_file_with_weight_or_seed(tmp_path, capsys):
    cw = tmp_path / "c.word"
    cw.write_text("17\n" + " ".join(map(str, ex.CODEWORD)) + "\n")
    ew = tmp_path / "e.word"
    ew.write_text("17\n" + " ".join(map(str, ex.ERROR)) + "\n")
    for extra in (("--weight", "5", "--seed", "3"), ("--weight", "5"), ("--seed", "3")):
        code, stdout, err = run(capsys, "corrupt", "--in", str(cw), "--e", str(ew), *extra)
        assert (code, stdout) == (1, "")
        assert "--e excludes --weight and --seed" in err


@pytest.mark.parametrize("method,extra", [("wb", []), ("virs", ["--s", "2"]), ("mgs", ["--s", "2"])])
def test_decode_methods_succeed(tmp_path, capsys, method, extra):
    # wb only reaches half distance, so feed it a weight-6 word
    if method == "wb":
        from rsdec import Field, Word, corrupt
        from rsdec.code import random_error

        F = Field(17)
        c = Word.from_ints(F, ex.CODEWORD)
        r = corrupt(c, random_error(ex.code(), 6, 5))
        path = write_received(tmp_path, r.to_ints())
    else:
        path = write_received(tmp_path)
    code, stdout, _ = run(capsys, "decode", "--method", method, "--in", path, "--k", "4", "--alpha", "3", *extra)
    assert code == 0
    assert "f: 1 1 1 1" in stdout
    assert "corrected:" in stdout
    if method in ("virs", "mgs"):
        assert "lambda: 12 13 15 13 14 5 12 1" in stdout
        assert "error_positions: 0 1 2 3 4 5 6" in stdout


def test_decode_failure_exit_code(tmp_path, capsys):
    path = write_received(tmp_path)
    code, stdout, _ = run(capsys, "decode", "--method", "wb", "--in", path, "--k", "4", "--alpha", "3")
    assert code == 2
    assert stdout.startswith("failure:")


def test_bad_invocations(tmp_path, capsys):
    assert run(capsys, "decode", "--method", "nope", "--in", "x", "--k", "4")[0] == 1
    assert run(capsys, "decode", "--method", "gs", "--in", "x", "--k", "4")[0] == 1
    assert run(capsys, "decode", "--method", "wb", "--k", "4")[0] == 1
    assert run(capsys, "decode", "--method", "wb", "--in", str(tmp_path / "missing"), "--k", "4")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 17, "n": 16, "k": 4, "s": 2, "weights": [7], "trials": 1, "seed": 5}))
    for threads in ("0", "-3"):
        code, stdout, err = run(capsys, "mc", "--config", str(cfg), f"--threads={threads}")
        assert (code, stdout) == (1, "")
        assert f"--threads must be at least 1, got {threads}" in err
    base = {"q": 17, "n": 16, "k": 4, "s": 2, "weights": [5], "trials": 1, "seed": 5}
    for bad, message in (
        ({"weights": [5, 5]}, "duplicate weights in [5, 5]"),
        ({"methods": ["wb", "virs", "wb"]}, "duplicate methods in ['wb', 'virs', 'wb']"),
        ({"methods": "wb"}, "methods must be a list, got 'wb'"),
        ({"weights": 5}, "weights must be a list, got 5"),
        ({"q": 1.5}, "q must be an integer, got 1.5"),
        ({"k": 2.0}, "k must be an integer, got 2.0"),
        ({"trials": "2"}, "trials must be an integer, got '2'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"weights": [5.0]}, "weights must be integers, got 5.0"),
    ):
        cfg.write_text(json.dumps({**base, **bad}))
        code, stdout, err = run(capsys, "mc", "--config", str(cfg))
        assert (code, stdout) == (1, "")
        assert f"rsdec: error: {message}" in err
    path = write_received(tmp_path)
    for argv, message in (
        (("dump", "--matrix", "A", "--tau", "-3"), "radius must be nonnegative"),
        (("dump", "--matrix", "Bbar", "--tau", "-1"), "radius must be nonnegative"),
        (("dump", "--matrix", "B", "--tau", "-1"), "radius must be nonnegative"),
        (("equiv", "--tau", "-1"), "radius must be nonnegative"),
        # a dense system has tau + s(k - 1) + 1 columns per block
        (("dump", "--matrix", "A", "--tau", "17"), "--tau 17 exceeds the code length n = 16"),
        (("dump", "--matrix", "B", "--tau", "1000000000"), "--tau 1000000000 exceeds the code length n = 16"),
        (("equiv", "--tau", "17"), "--tau 17 exceeds the code length n = 16"),
    ):
        code, stdout, err = run(capsys, *argv, "--in", path, "--k", "4")
        assert (code, stdout) == (1, "")
        assert message in err
    # at k = 1 the radius floor(s(n-1)/(s+1)) stops growing at s = n - 2
    # while the systems grow as s^2, so larger orders are refused
    for argv, bound in (
        (("decode", "--method", "virs", "--s", "15"), 14),
        (("decode", "--method", "mgs", "--s", "1000000000"), 14),
        (("dump", "--matrix", "A", "--s", "15"), 14),
        (("dump", "--matrix", "Bbar", "--s", "1000000000"), 14),
        (("dump", "--matrix", "B", "--s", "15", "--tau", "3"), 14),
        (("equiv", "--s", "1000000000"), 14),
        (("dump", "--matrix", "A"), 1),  # the default order 2 at n = 3
    ):
        word = write_received(tmp_path, [1, 2, 3], "short.word") if bound == 1 else path
        code, stdout, err = run(capsys, *argv, "--in", word, "--k", "1")
        assert (code, stdout) == (1, "")
        order = argv[argv.index("--s") + 1] if "--s" in argv else "2"
        assert f"order {order} exceeds {bound}" in err
    assert run(capsys, "decode", "--method", "mgs", "--s", "14", "--in", path, "--k", "1")[0] in (0, 2)
    for order in (15, 1000000000):
        cfg.write_text(json.dumps({**base, "k": 1, "s": order}))
        code, stdout, err = run(capsys, "mc", "--config", str(cfg))
        assert (code, stdout) == (1, "")
        assert f"rsdec: error: order {order} exceeds 14" in err
    code, stdout, err = run(capsys, "dump", "--matrix", "wb", "--tau", "5", "--in", path, "--k", "4")
    assert (code, stdout) == (1, "")
    assert "--tau does not apply to --matrix wb" in err
    for order, k in (("3", "4"), ("1000000000", "1")):
        code, stdout, err = run(capsys, "decode", "--method", "wb", "--s", order, "--in", path, "--k", k)
        assert (code, stdout) == (1, "")
        assert "--s does not apply to --method wb" in err
    for method in ("virs", "mgs"):
        code, stdout, err = run(capsys, "decode", "--method", method, "--s", "0", "--in", path, "--k", "4")
        assert (code, stdout) == (1, "")
        assert "order 0 infeasible for (n, k) = (16, 4)" in err


def test_word_file_comments_and_blanks(tmp_path, capsys):
    path = tmp_path / "r.word"
    path.write_text("# received word\n\n17\n# residues follow\n" + " ".join(map(str, ex.RECEIVED)) + "\n\n")
    code, stdout, _ = run(capsys, "decode", "--method", "virs", "--in", str(path), "--k", "4", "--alpha", "3", "--s", "2")
    assert code == 0
    assert "f: 1 1 1 1" in stdout


def test_malformed_word_file(tmp_path, capsys):
    path = tmp_path / "bad.word"
    path.write_text("17\n1 2 3\n4 5 6\n")
    assert run(capsys, "decode", "--method", "wb", "--in", str(path), "--k", "2")[0] == 1
    path.write_text("18\n1 2 3\n")
    assert run(capsys, "decode", "--method", "wb", "--in", str(path), "--k", "2")[0] == 1


# tmp_path is shared by the examples of one test; each rewrites the file
reuse_tmp_path = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
word_fields = st.sampled_from([2, 3, 17, 257])


@reuse_tmp_path
@given(word_fields.flatmap(lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=20))),
       st.integers(1, 20))
def test_word_parser_accepts_residues_in_range(tmp_path, word, k):
    q, values = word
    path = tmp_path / "w.word"
    path.write_text(f"{q}\n{' '.join(map(str, values))}\n")
    if k <= len(values):
        assert read_word_file(str(path), k) == (q, values)
    else:
        with pytest.raises(ValueError, match=f"length {len(values)} is too short for k = {k}"):
            read_word_file(str(path), k)


@reuse_tmp_path
@given(word_fields.flatmap(lambda q: st.tuples(
    st.just(q),
    st.lists(st.integers(0, q - 1), min_size=1, max_size=20),
    st.one_of(st.integers(max_value=-1), st.integers(min_value=q)),
)), st.data())
def test_word_parser_rejects_residue_out_of_range(tmp_path, capsys, word, data):
    q, values, bad = word
    at = data.draw(st.integers(0, len(values)))
    values = values[:at] + [bad] + values[at:]
    path = tmp_path / "w.word"
    path.write_text(f"{q}\n{' '.join(map(str, values))}\n")
    first = next(i for i, v in enumerate(values) if not 0 <= v < q)
    message = f"residue {values[first]} at position {first} is outside"
    with pytest.raises(ValueError, match=message):
        read_word_file(str(path))
    # message coefficients pass the same range check
    code, stdout, err = run(capsys, "encode", "--q", str(q), "--n", "1", "--k", "1", f"--f={','.join(map(str, values))}")
    assert (code, stdout) == (1, "")
    assert message in err
    # so does a token that is not a decimal integer, in both places
    tokens = [str(v) for v in values]
    tokens[at] = f"{bad}.5"
    path.write_text(f"{q}\n{' '.join(tokens)}\n")
    with pytest.raises(ValueError, match="residues must be decimal integers"):
        read_word_file(str(path))
    code, stdout, err = run(capsys, "encode", "--q", str(q), "--n", "1", "--k", "1", f"--f={','.join(tokens)}")
    assert (code, stdout) == (1, "")
    assert "--f: residues must be decimal integers" in err


def test_bad_words_exit_1_and_name_the_problem(tmp_path, capsys):
    symbols = list(ex.RECEIVED)
    symbols[3], symbols[9] = 99, -3
    path = write_received(tmp_path, symbols)
    code, stdout, err = run(capsys, "decode", "--method", "virs", "--in", path, "--k", "4", "--alpha", "3", "--s", "2")
    assert (code, stdout) == (1, "")
    assert "residue 99 at position 3" in err
    path = write_received(tmp_path, [1, 2, 3])
    code, _, err = run(capsys, "decode", "--method", "wb", "--in", path, "--k", "4")
    assert code == 1
    assert "length 3 is too short for k = 4" in err


DUMP_SHA256 = [
    ("A", ("--s", "2"), (32, 33), "77dff95f812c41557f9c2c33130c4a4eda163a7cbf2370df7c9de466a65a4e88"),
    ("Bbar", ("--s", "2"), (32, 33), "19cbc77dafb5d20532a85b8796bcd6cd6cb7008335185984588421af3a113e23"),
    ("B", ("--s", "2"), (32, 33), "6a1cef88865dfdb6794cfef1062380f54af096becbd5a51c59a17d8116db286f"),
    ("wb", (), (16, 17), "9124a32627db66f1af8ec5cb9decc3a2a87f052356f76de10de07f8a81fa6c96"),
    ("Bbar", ("--s", "3", "--tau", "4"), (48, 38), "85d6801f51d4d561d24202b0a282db43f153d01556aab867ef448f65ce0fe9e1"),
]


def test_dump_matrices(tmp_path, capsys):
    path = write_received(tmp_path)
    for name, order, (rows, cols), digest in DUMP_SHA256:
        code, stdout, _ = run(capsys, "dump", "--matrix", name, "--in", path, "--k", "4", "--alpha", "3", *order)
        assert code == 0
        data = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
        assert len(data) == rows
        assert all(len(ln.split()) == cols for ln in data)
        # the exact bytes, so no change to the row builder reorders or rescales a row
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_dump_order_defaults_to_two_and_is_refused_for_wb(tmp_path, capsys):
    path = write_received(tmp_path)
    for name in ("A", "Bbar", "B"):
        code, stdout, _ = run(capsys, "dump", "--matrix", name, "--in", path, "--k", "4")
        assert (code, stdout) == run(capsys, "dump", "--matrix", name, "--in", path, "--k", "4", "--s", "2")[:2]
        assert code == 0
    code, stdout, err = run(capsys, "dump", "--matrix", "wb", "--s", "3", "--in", path, "--k", "4")
    assert (code, stdout) == (1, "")
    assert "--s does not apply to --matrix wb" in err


def test_equiv_command(tmp_path, capsys):
    path = write_received(tmp_path)
    code, stdout, _ = run(capsys, "equiv", "--in", path, "--k", "4", "--alpha", "3", "--s", "2")
    assert code == 0
    assert "equivalent" in stdout.lower()


def test_equiv_eliminates_each_system_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = rsdec.linalg._rref_ints

    def counting(rows, q):
        calls.append(q)
        return original(rows, q)

    monkeypatch.setattr(rsdec.linalg, "_rref_ints", counting)
    path = write_received(tmp_path)
    code, stdout, _ = run(capsys, "equiv", "--in", path, "--k", "4", "--alpha", "3", "--s", "2")
    assert (code, stdout) == (0, "equivalent: true\nnullspace_dim: 1\n")
    assert len(calls) == 2


def test_mc_command_deterministic(tmp_path, capsys):
    cfg = {"q": 17, "n": 16, "k": 4, "s": 2, "weights": [7], "trials": 2, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(capsys, "mc", "--config", str(cfg_path), "-o", str(out1))[0] == 0
    assert run(capsys, "mc", "--config", str(cfg_path), "-o", str(out2), "--threads", "4")[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "weight,method,trials,successes,failures,miscorrections,agreement_rate"


def test_mc_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"q": 17}))
    assert run(capsys, "mc", "--config", str(cfg_path))[0] == 1
    cfg_path.write_text("not json")
    assert run(capsys, "mc", "--config", str(cfg_path))[0] == 1

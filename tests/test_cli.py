import json

import pytest

from edgewatch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bands_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "bands", "--potential", "0,3")
    assert code == 0
    assert out == "lo,hi,closed_gaps\n-1,0,0\n3,4,0\n"


def test_bands_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "bands", "--potential", "0,3")
    _, out2, _ = run_cli(capsys, "bands", "--potential", "0,3")
    assert out1 == out2


def test_bands_json_mirrors_csv(capsys):
    code, out, _ = run_cli(capsys, "bands", "--potential", "0,3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"lo": -1.0, "hi": 0.0, "closed_gaps": 0},
                    {"lo": 3.0, "hi": 4.0, "closed_gaps": 0}]


def test_spectrum_free_chain(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--potential", "0", "--L", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,lambda,weight_end,weight_start,band,local_index"
    first = lines[1].split(",")
    assert first[1].startswith("-1.41421356")
    assert abs(float(first[2]) - 0.25) < 1e-12
    mid = lines[2].split(",")
    assert float(mid[1]) == 0.0
    assert abs(float(mid[2]) - 0.5) < 1e-12


def test_edges_classification_column(capsys):
    code, out, _ = run_cli(capsys, "edges", "--potential", "0,3", "--j", "0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    by_energy = {r[0]: r[-1] for r in rows}
    assert by_energy["-1"] == "GenericA"
    assert by_energy["0"] == "EdgeEigenvalue"


def test_resonances_small_run(capsys):
    code, out, _ = run_cli(capsys, "resonances", "--potential", "0,3",
                           "--L", "200", "--edge", "-1", "--eps", "0.2")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header == ["n", "lambda_n", "a_n", "alpha_re", "alpha_im",
                      "seed_re", "seed_im", "z_re", "z_im", "residual",
                      "winding_verified"]
    assert len(lines) == 1 + 5  # floor(0.2*200/10) + 1 rows
    assert all(line.endswith("true") for line in lines[1:])


def test_resonances_reference_run(capsys):
    code, out, _ = run_cli(capsys, "resonances", "--potential", "0,3",
                           "--L", "400", "--edge", "-1", "--eps", "0.2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 9
    assert all(line.endswith("true") for line in lines[1:])
    assert "np." not in out  # plain shortest-repr decimals, no numpy wrappers
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 11
        float(cells[6])  # seed_im parses as a plain decimal
        assert float(cells[8]) < 0  # z_im strictly negative


def test_free_region_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "free-region", "--potential", "0,3",
                           "--L", "200", "--edge", "-1", "--eps", "0.2")
    assert code == 0
    assert out.startswith("free,x_lo,x_hi,depth\ntrue,")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "bands.csv"
    code, out, _ = run_cli(capsys, "bands", "--potential", "0,3",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "lo,hi,closed_gaps\n-1,0,0\n3,4,0\n"


def test_usage_errors(capsys):
    # argparse rejects unknown flags with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--nonsense"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "bands")
    assert code == 2
    assert "potential" in err
    code, _, err = run_cli(capsys, "resonances", "--potential", "0,3",
                           "--L", "200", "--edge", "0.5")
    assert code == 2
    assert "edge" in err


def test_removed_options_rejected():
    for argv in (["bands", "--potential", "0,3", "--seed", "1"],
                 ["edges", "--potential", "0,3", "--j", "0", "--seed", "1"],
                 ["spectrum", "--potential", "0,3", "--L", "20",
                  "--tol", "1e-13"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_resonance_index_out_of_range_exit_code(capsys):
    # a negative or past-the-band index is a usage error, not a wrapped index
    for extra, msg in ((["--n", "-1"], "n must be >= 0"),
                       (["--proportional", "-0.004"], "n must be >= 0"),
                       (["--n", "500"], "inside the band")):
        code, out, err = run_cli(capsys, "l-scaling", "--potential", "0,3",
                                 "--edge", "-1", "--L-list", "250,500,1000",
                                 *extra)
        assert code == 2
        assert out == ""
        assert msg in err


def test_run_config_invariants(capsys):
    code, _, err = run_cli(capsys, "resonances", "--potential", "0,3",
                           "--L", "5", "--edge", "-1")
    assert code == 2
    assert "L >= 10" in err
    code, _, err = run_cli(capsys, "resonances", "--potential", "0,3",
                           "--L", "200", "--edge", "-1", "--eps", "-0.1")
    assert code == 2
    assert "eps" in err


def test_numerical_error_exit_code(capsys):
    # sweeping a non-generic edge is a numerical error, exit 3
    code, _, err = run_cli(capsys, "resonances", "--potential", "0,3",
                           "--L", "200", "--edge", "0")
    assert code == 3
    assert "NonGenericEdge" in err


def test_resonances_output_deterministic(capsys):
    # README contract: identical configuration and seed give identical bytes
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "resonances", "--potential", "0,3",
                               "--L", "200", "--edge", "-1")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,passed,detail"
    assert all(",true," in line for line in lines[1:])


def test_scaling_command(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--potential", "0,3",
                           "--L", "400", "--edge", "-1", "--eps", "0.2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("name,slope,intercept,r_squared")
    assert any(line.startswith("eigenvalue-offsets,") for line in lines)
    assert any(line.startswith("resonance-widths,") for line in lines)


def test_l_scaling_command(capsys):
    code, out, _ = run_cli(capsys, "l-scaling", "--potential", "0,3",
                           "--edge", "-1", "--L-list", "100,200,400",
                           "--n", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1].startswith("fixed-n=1,")
    slope = float(lines[1].split(",")[1])
    assert abs(slope + 3.0) <= 0.3


def test_potential_file(tmp_path, capsys):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"period": 2, "values": [0.0, 3.0]}))
    code, out, _ = run_cli(capsys, "bands", "--potential-file", str(path))
    assert code == 0
    assert "-1,0,0" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"period": 3, "values": [0.0, 3.0]}))
    code, _, err = run_cli(capsys, "bands", "--potential-file", str(bad))
    assert code == 2

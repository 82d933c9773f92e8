import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import edgewatch as ew
from edgewatch import cli
from edgewatch import resonance as rz
from edgewatch.cli import main
from edgewatch.errors import NoConvergence


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


def test_edges_narrow_bands_keep_both_edges(capsys):
    # band 0 of (0, 1e5, 1e5) is 4e-10 wide, narrower than classify_edge's
    # 1e-9 match tolerance; each edge must resolve to itself, not to the
    # first edge point within the tolerance.  The gap of (0, 1e-7) is 1e-7
    # wide and stays open, so both of its edges are listed.  Both edges of
    # band 0 of the period-6 potential share one recorded energy, and each
    # is classified as itself
    for potential, n_bands, n_energies in (
            ("0,1e5,1e5", 3, 6), ("0,1e-7", 2, 4),
            ("-15,-1452,-14,2807,-201,2648", 6, 11)):
        code, out, _ = run_cli(capsys, "edges", f"--potential={potential}",
                               "--j", "0")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(r[1], r[2]) for r in rows] == [
            (str(b), side) for b in range(n_bands)
            for side in ("left", "right")]
        assert len({r[0] for r in rows}) == n_energies


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


def test_resonances_verdicts_print_as_booleans(capsys):
    # boxes 13 and 14 of this sweep count one resonance each but Newton
    # lands outside them: their verdict is false in both formats
    argv = ["resonances", "--potential=-0.68,1.15,-0.79", "--L", "48",
            "--edge=-0.7722858372732013", "--eps", "0.3", "--c1", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    verdicts = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert len(verdicts) == 15
    assert set(verdicts) <= {"true", "false"}
    assert verdicts[13:] == ["false", "false"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    rows = json.loads(out)
    assert [r["winding_verified"] for r in rows] == [
        v == "true" for v in verdicts]


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
                  "--tol", "1e-13"],
                 ["resonances", "--potential", "0,3", "--L", "200",
                  "--edge", "-1", "--c0", "50"],
                 ["scaling", "--potential", "0,3", "--L", "200",
                  "--edge", "-1", "--newton-tol", "1e-11"],
                 ["resonances", "--potential", "0,3", "--L", "200",
                  "--edge", "-1", "--max-iter", "50"],
                 ["l-scaling", "--potential", "0,3", "--edge", "-1",
                  "--L-list", "100,200,400", "--c0", "50"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_resonance_index_out_of_range_exit_code(capsys):
    # a negative or past-the-band index is a usage error, not a wrapped index
    for extra, msg in ((["--n", "-1"], "n must be >= 0"),
                       (["--proportional", "-0.004"],
                        "--proportional must be in [0, 1)"),
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
    code, out, err = run_cli(capsys, "l-scaling", "--potential", "0,3",
                             "--edge", "-1", "--L-list", "100,200,400",
                             "--n", "1", "--eps", "0.5")
    assert code == 2
    assert out == ""
    assert "eps must be in (0, 0.3]" in err


def test_numerical_error_exit_code(capsys):
    # sweeping a non-generic edge is a numerical error, exit 3; so is a
    # potential whose polynomial scale overflows, where the root residual
    # check would compare against inf and certify nothing; and so is a
    # sweep reaching the cut, refused by the guard of the first box that
    # meets it, since every box is counted before any seed is refined: also
    # where that box's own eigenvalue lies past 2, so its seed would lie on
    # the cut
    for argv, name in (
            (["resonances", "--potential", "0,3", "--L", "200", "--edge",
              "0"], "NonGenericEdge"),
            (["bands", "--potential", "1e200,0"], "RootFindingFailure"),
            (["edges", "--potential", "1e200,0", "--j", "0"],
             "RootFindingFailure"),
            (["resonances", "--potential=1.09,0.13", "--L", "355",
              "--edge=1.09", "--eps", "0.3", "--c1", "1"],
             "OnBranchCut: box [1.9906556834945743, 2.0031949468486685] "
             "meets the real axis outside (-2, 2)"),
            (["resonances", "--potential=0.07,1.62", "--L", "272",
              "--edge=1.62", "--eps", "0.3", "--c1", "1"],
             "OnBranchCut: box [1.9985837138932023, 2.0139801752131508] "
             "meets the real axis outside (-2, 2)")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert name in err


@pytest.mark.parametrize("potential, L, edge", [
    ("1.2,1.42,-1.12", 174, "-1.9904570840629134"),
    ("1.47,1.2,0.26", 350, "0.3343692346777312")])
def test_stalled_sweep_reports_its_first_failing_box(capsys, potential, L,
                                                     edge):
    # Newton stalls from the seed of one box of these sweeps (n = 19 of 53,
    # n = 95 of 106), and the sweep exits 3 with the error newton_refine
    # raises on that seed alone
    V = ew.PeriodicPotential.from_values(potential.split(","))
    bs = ew.band_structure(V)
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, L)), bs)
    ed = ew.classify_edge(V, bs, float(edge), sd.j)
    members = sd.edge_members(ed)
    for n in range(int(0.3 * L) + 1):
        g = int(members[n])
        _, seed = rz.alpha_and_seed(sd, ed.band_index, int(sd.local_index[g]))
        try:
            rz.newton_refine(sd, seed)
        except NoConvergence as exc:
            expected = f"numerical error: NoConvergence: {exc}\n"
            break
    else:
        pytest.fail("no box of the sweep stalls")
    code, out, err = run_cli(capsys, "resonances", f"--potential={potential}",
                             "--L", str(L), f"--edge={edge}", "--eps", "0.3",
                             "--c1", "1")
    assert (code, out, err) == (3, "", expected)


def test_resonances_output_deterministic(capsys):
    # README contract: identical configuration gives identical bytes; --seed
    # is accepted for old command lines and steers nothing
    outs = []
    for seed in ("0", "7"):
        code, out, _ = run_cli(capsys, "resonances", "--potential", "0,3",
                               "--L", "400", "--edge", "-1", "--seed", seed)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


ROOT = Path(__file__).resolve().parent.parent


def test_readme_commands_parse_and_run_in_ci():
    # each line of the README's command block is a valid command line, and
    # CI runs it through the installed console script
    readme = (ROOT / "README.md").read_text()
    block = next(b for b in re.findall(r"^```\n(.*?)^```", readme,
                                       re.M | re.S)
                 if b.startswith("edgewatch "))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("- name: Installed console script\n", 1)[1]
    step_lines = {line.strip() for line in step.split("- name:", 1)[0]
                  .splitlines()}
    lines = block.splitlines()
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "edgewatch"
        cli.build_parser().parse_args(argv[1:])
        assert line in step_lines, line


def test_cli_does_not_import_scipy():
    # the eigensolve needs numpy only; scipy would add most of the start-up
    # time and memory of every command.  Nor does a command load
    # edgewatch.summation, whose compensated sum no command runs
    src = str(Path(ew.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    script = ("import sys\n"
              "from edgewatch import cli\n"
              "code = cli.main(['resonances', '--potential', '0,3', '--L', "
              "'400', '--edge', '-1', '--eps', '0.2'])\n"
              "loaded = [name for name in ('scipy', 'edgewatch.summation') "
              "if name in sys.modules]\n"
              "sys.stderr.write(f'loaded: {loaded}')\n"
              "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "loaded: []")
    assert done.stdout.startswith("n,")


VERIFY_ROWS = ["product-unimodular", "trace-k-independence",
               "band-partition", "quasi-momentum", "free-chain-oracle",
               "weight-normalisation", "cauchy-interlacing", "theta-branch",
               "im-s-identity", "winding-exactness", "fit-exactness"]


def test_verify_command(capsys):
    # the property checks live in verify.py only; every row must pass, also
    # at seed 1, whose transfer products reach entries of ~4e3
    for seed in ("0", "1"):
        code, out, _ = run_cli(capsys, "verify", "--seed", seed)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,passed,detail"
        assert [line.split(",")[0] for line in lines[1:]] == VERIFY_ROWS
        assert all(",true," in line for line in lines[1:])


def test_scaling_command(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--potential", "0,3",
                           "--L", "400", "--edge", "-1", "--eps", "0.2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("name,slope,intercept,r_squared")
    assert any(line.startswith("eigenvalue-offsets,") for line in lines)
    assert any(line.startswith("resonance-widths,") for line in lines)


def test_scaling_names_the_fit_with_too_few_points(capsys):
    # at L = 150 the sweep keeps a single width beyond the excluded indices
    code, out, err = run_cli(capsys, "scaling", "--potential", "0,3",
                             "--L", "150", "--edge", "-1")
    assert code == 3
    assert out == ""
    assert "TooFewPoints: resonance-widths: need at least 4 points, got 1" in err


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
    for period in (2, 2.0):
        path.write_text(json.dumps({"period": period, "values": [0.0, 3.0]}))
        code, out, _ = run_cli(capsys, "bands", "--potential-file", str(path))
        assert code == 0
        assert "-1,0,0" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"period": 3, "values": [0.0, 3.0]}))
    code, _, err = run_cli(capsys, "bands", "--potential-file", str(bad))
    assert code == 2
    # valid JSON of the wrong shape is a usage error, not a traceback or a
    # string read character by character
    for data in ([0, 3], {"period": 2, "values": 3},
                 {"period": 2, "values": "03"},
                 {"period": None, "values": [0, 3]},
                 {"period": 2.7, "values": [0, 3]},
                 {"period": float("inf"), "values": [0, 3]},
                 {"period": True, "values": [1.5]},
                 {"period": 2, "values": [None, 3]}):
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "bands", "--potential-file",
                                 str(bad))
        assert code == 2
        assert out == ""
        assert "--potential-file must hold" in err


def test_non_finite_values_rejected(capsys):
    # NaN compares false against every tolerance, so a NaN edge would match
    # the first edge and a NaN eps would reach the box constructor
    for argv in (["resonances", "--potential", "0,3", "--L", "200",
                  "--edge", "nan"],
                 ["free-region", "--potential", "0,3", "--L", "200",
                  "--edge", "nan"],
                 ["resonances", "--potential", "0,3", "--L", "200",
                  "--edge", "-1", "--eps", "nan"],
                 ["scaling", "--potential", "0,3", "--L", "200",
                  "--edge", "-1", "--c1", "inf"],
                 ["l-scaling", "--potential", "0,3", "--edge", "-1",
                  "--L-list", "100,200,400", "--eps", "inf"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err


class _Recorder:
    """Stands in for a layer module as seen from edgewatch.cli."""

    def __init__(self, module, calls):
        self._module = module
        self._calls = calls

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if not inspect.isfunction(obj):
            return obj
        label = f"{self._module.__name__.rsplit('.', 1)[-1]}.{name}"

        def call(*args, **kwargs):
            self._calls.append(label)
            return obj(*args, **kwargs)
        return call


def test_layer_calls_go_through_module_references(monkeypatch, capsys):
    # the benchmark's traced mode times the CLI by swapping exactly these
    # module references, so every section and every resonance must pass
    # through them
    calls = []
    for name in ("spectrum", "resonance"):
        monkeypatch.setattr(cli, name, _Recorder(getattr(cli, name), calls))
    section = ["spectrum.assemble", "spectrum.eigensystem",
               "spectrum.band_enumerate"]
    code, out, _ = run_cli(capsys, "resonances", "--potential", "0,3",
                           "--L", "200", "--edge", "-1")
    assert code == 0 and len(out.splitlines()) == 1 + 5
    assert calls == (["resonance.check_step_inputs"] + section
                     + ["resonance.sweep_band_edge"])
    calls.clear()
    code, out, _ = run_cli(capsys, "l-scaling", "--potential", "0,3",
                           "--edge", "-1", "--L-list", "100,200,400",
                           "--n", "1", "--proportional", "0.02")
    assert code == 0 and len(out.splitlines()) == 1 + 2
    assert calls == (["resonance.check_step_inputs"]
                     + 3 * (section + 2 * ["resonance.locate_resonance"]))


def test_l_scaling_refuses_bad_lengths_before_numerics(monkeypatch, capsys):
    # the fit needs distinct lengths >= 10 of one residue L mod p; that is
    # known from --L-list and the period before any section is built, and
    # so is the step check on the edge classified for that residue and n
    calls = []
    for name in ("spectrum", "resonance"):
        monkeypatch.setattr(cli, name, _Recorder(getattr(cli, name), calls))
    step = ["resonance.check_step_inputs"]
    for lengths, edge, eps, n, msg, expected in (
            ("100,200,401", "-1", "0.2", "0", "mixes residues", []),
            ("100,100,100", "-1", "0.2", "0", "repeats a length", []),
            ("4,6,8", "-1", "0.2", "0", "L >= 10", []),
            ("100,200,400", "3", "0.2", "0", "outside (-2, 2)", step),
            ("100,200,400", "-1", "0.5", "0", "eps must be in (0, 0.3]",
             step),
            ("100,200,400", "-1", "0.2", "-1", "n must be >= 0, got -1",
             step),
            # a box floor eps^5 that underflows to 0 builds no box
            ("250,500,1000", "-1", "1e-70", "3",
             "eps = 1e-70 is too small: eps^5 underflows to 0", step)):
        calls.clear()
        code, out, err = run_cli(capsys, "l-scaling", "--potential", "0,3",
                                 "--edge", edge, "--eps", eps,
                                 "--L-list", lengths, "--n", n)
        assert code == 2
        assert out == ""
        assert msg in err
        assert calls == expected
    # so is a --proportional fraction outside [0, 1): int(FRAC * L) is then
    # no index of the band, and at FRAC = 1e308 it overflows
    calls.clear()
    code, out, err = run_cli(capsys, "l-scaling", "--potential", "0,3",
                             "--edge", "-1", "--L-list", "100,200,400",
                             "--proportional", "1e308")
    assert code == 2
    assert out == ""
    assert "--proportional must be in [0, 1)" in err
    assert calls == []


def test_edge_outside_the_cuts_refused_before_numerics(monkeypatch, capsys):
    # an edge on |E| >= 2 is one usage error, found before any eigensolve,
    # whether the edge is generic (L = 200) or not (L = 99); so are a
    # non-positive C1, an eps outside (0, 0.3] and a sweep with
    # L*eps/C1 < 3 or not finite, whose one owner is
    # resonance.check_step_inputs
    calls = []
    for name in ("spectrum", "resonance"):
        monkeypatch.setattr(cli, name, _Recorder(getattr(cli, name), calls))
    step = ["resonance.check_step_inputs"]
    profile = ["spectrum.check_profile_inputs"]
    region = ["resonance.check_region_inputs"]
    eps_msg = "eps must be in (0, 0.3]"
    short = "L*eps/C1 = 2.00 < 3; increase L"
    for command, L, edge, eps, msg, expected, *extra in (
            ("resonances", "200", "3", "0.2", "outside (-2, 2)", step),
            ("scaling", "200", "3", "0.2", "outside (-2, 2)", step),
            ("resonances", "99", "3", "0.2", "outside (-2, 2)", step),
            ("scaling", "99", "3", "0.2", "outside (-2, 2)", step),
            ("resonances", "200", "-1", "-0.1", eps_msg, step),
            ("resonances", "200", "-1", "0.5", eps_msg, step),
            ("scaling", "200", "-1", "-0.1", eps_msg, step),
            ("resonances", "100", "-1", "0.2", short, step),
            ("scaling", "100", "-1", "0.2", short, step),
            ("resonances", "200", "-1", "0.2", "L*eps/C1 = 0.00 < 3", step,
             "--c1", "1e9"),
            ("resonances", "200", "-1", "0.2", "C1 must be positive, got 0.0",
             step, "--c1", "0"),
            # a subnormal C1: L*eps/C1 overflows to inf
            ("resonances", "400", "-1", "0.3", "L*eps/C1 = inf is not finite",
             step, "--c1", "1e-320"),
            ("scaling", "400", "-1", "0.3", "L*eps/C1 = inf is not finite",
             step, "--c1", "5e-324"),
            # the fits at a non-generic edge take eps in (0, 0.5), whose
            # owner is spectrum.check_profile_inputs
            ("scaling", "200", "0", "-0.1", "(0, 0.5), got -0.1",
             step + profile),
            ("scaling", "200", "0", "0.6", "(0, 0.5), got 0.6",
             step + profile),
            # free-region's rules have one owner, resonance.check_region_inputs
            ("free-region", "200", "-1", "-0.1", "eps must be positive, got "
             "-0.1", region),
            ("free-region", "200", "0", "0.2", "applies to left band edges",
             region),
            ("free-region", "200", "3", "5", "gap below the edge is narrower "
             "than eps = 5.0", region),
            ("free-region", "200", "3", "0.2", "rectangle [2.8, 3.0] meets "
             "the real axis outside (-2, 2)", region),
            # an eps that leaves e0 - eps == e0
            ("free-region", "400", "-1", "1e-17", "eps = 1e-17 is too small "
             "for the edge -1.0", region),
            # an eps whose eps^5 overflows: the interval's rules come first
            ("free-region", "400", "-1", "1e300", "rectangle [-1e+300, -1.0] "
             "meets the real axis outside (-2, 2)", region)):
        calls.clear()
        code, out, err = run_cli(capsys, command, "--potential", "0,3",
                                 "--L", L, "--edge", edge, "--eps", eps,
                                 *extra)
        assert code == 2
        assert out == ""
        assert msg in err
        assert calls == expected
    # a section length below 1 is refused by its owner, spectrum.assemble
    calls.clear()
    code, out, err = run_cli(capsys, "spectrum", "--potential", "0,3",
                             "--L", "0")
    assert code == 2
    assert out == ""
    assert "L must be >= 1, got 0" in err
    assert calls == ["spectrum.assemble"]

"""End-to-end tests of the command-line interface."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from chsurf import verify
from chsurf.cli import VERIFY_SUITES, parse_q, parse_rational, run
from chsurf.surface import CLASSIFICATION_TABLE
from chsurf.verify import grid_specs
from fractions import Fraction


def invoke(*argv):
    out, err = io.BytesIO(), io.BytesIO()
    code = run(list(argv), out, err)
    return code, out.getvalue().decode("utf-8"), err.getvalue().decode("utf-8")


def load_schema(name):
    text = resources.files("chsurf.schemas").joinpath(name).read_text()
    return json.loads(text)


def validate(record, schema_name):
    jsonschema.validate(record, load_schema(schema_name))


# -- argument parsing -------------------------------------------------------------


def test_parse_rational():
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(Exception):
        parse_rational("abc")


def test_parse_q_sugar():
    assert parse_q("-1") == Fraction(-1)
    assert parse_q("p=i") == Fraction(-1)
    assert parse_q("p=1") == Fraction(1)
    assert parse_q("p=3/2") == Fraction(9, 4)
    assert parse_q("p=2i") == Fraction(-4)
    # A bare sign before i stands for 1, like p=i itself.
    assert parse_q("p=-i") == Fraction(-1)
    assert parse_q("p=+i") == Fraction(-1)
    assert parse_q("p=-3/2i") == Fraction(-9, 4)


# -- subcommands ------------------------------------------------------------------


def test_curve_props_golden_line():
    code, out, err = invoke("curve-props", "--n", "7", "--d", "3", "--a", "1/4")
    assert code == 0
    assert out == '{"order":20,"origin":14,"absolute":6,"shape":"prolate"}\n'
    validate(json.loads(out), "curve_props.schema.json")


def test_curve_props_decimal_input():
    code, out, _ = invoke("curve-props", "--n", "7", "--d", "3", "--a", "0.25")
    assert code == 0
    assert json.loads(out)["order"] == 20


def test_curve_implicit_schema_and_content():
    code, out, _ = invoke("curve-implicit", "--n", "1", "--d", "1")
    assert code == 0
    record = json.loads(out)
    validate(record, "polynomial.schema.json")
    assert record["vars"] == ["x", "y"]
    assert {"exp": [2, 0], "re": "1/1", "im": "0/1"} in record["terms"]
    # The schema admits real integer coefficients only.
    for re_part, im_part in (("1/2", "0/1"), ("1/1", "1/1"), ("1/1", "0/2")):
        term = {"exp": [2, 0], "re": re_part, "im": im_part}
        with pytest.raises(jsonschema.ValidationError):
            validate(dict(record, terms=[term]), "polynomial.schema.json")
    code, out, _ = invoke("curve-implicit", "--n", "1", "--d", "1", "--homogeneous")
    record = json.loads(out)
    validate(record, "polynomial.schema.json")
    assert record["vars"] == ["x0", "x1", "x2"]


def test_curve_implicit_bytes_match_recorded_grid():
    # The benchmark records the sha256 of this output for all 275 grid specs.
    path = Path(__file__).resolve().parents[1] / "bench" / "references" / "table1_implicit.json"
    recorded = json.loads(path.read_text())["sha256"]
    assert len(recorded) == 275
    for key, digest in recorded.items():
        n, d, a = key.split(",")
        code, out, _ = invoke("curve-implicit", f"--n={n}", f"--d={d}", f"--a={a}")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest, key


def test_curve_implicit_homogeneous_bytes_are_pinned():
    # sha256 over the concatenated --homogeneous output of the 275 grid specs,
    # in grid order, recorded when coefficients were still pairs of Fractions.
    combined = hashlib.sha256()
    for s in grid_specs():
        code, out, _ = invoke(
            "curve-implicit", f"--n={s.n}", f"--d={s.d}", f"--a={s.a}", "--homogeneous"
        )
        assert code == 0
        combined.update(out.encode("ascii"))
    assert combined.hexdigest() == (
        "f4d5ce81a6261b582f1be36220661ff5ffbfa78a5b3be811833b4f025940ec90"
    )


def test_curve_sample_csv(tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = invoke(
        "curve-sample", "--n", "3", "--d", "1", "--samples", "8",
        "--cx", "-1", "--out", str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "phi,x,y,z"
    assert len(lines) == 9
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([0.0, 0.0, 0.0, 0.0])  # petal tip on the axis


def test_surface_classify_golden():
    code, out, _ = invoke(
        "surface-classify", "--n", "9", "--d", "2", "--a", "2",
        "--q", "-1", "--cx", "0", "--cy", "0", "--h", "1",
    )
    assert code == 0
    record = json.loads(out)
    validate(record, "classification.schema.json")
    assert record == {
        "type": "2B",
        "order": 40,
        "absolute_conic": 4,
        "axis": 32,
        "directing_points": 36,
    }


def test_surface_classify_csv_sidecars(tmp_path):
    circles = tmp_path / "circles.csv"
    waist = tmp_path / "waist.csv"
    code, out, _ = invoke(
        "surface-classify", "--n", "3", "--d", "1", "--cx", "1",
        "--q", "-1", "--singular-circles-csv", str(circles),
        "--waist-points-csv", str(waist),
    )
    assert code == 0
    assert json.loads(out)["type"] == "5A"
    assert circles.read_text().splitlines()[0] == "meridian_angle,center_offset,radius,multiplicity"
    waist_lines = waist.read_text().splitlines()
    assert waist_lines[0] == "x,y,z"
    assert len(waist_lines) == 4  # three distinct contact points


def test_surface_classify_refuses_both_sidecars_on_one_file(tmp_path, monkeypatch):
    # The second sidecar would replace the first; one file spelled two ways.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out, err = invoke(
        "surface-classify", "--n", "3", "--d", "1", "--q=1", "--cx=1",
        "--singular-circles-csv=s.csv", "--waist-points-csv", str(tmp_path / "sub" / ".." / "s.csv"),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "one file" in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sub"]


# sha256 over the exit code, stdout, stderr and both CSVs of the 160 queries
# of the benchmark's surface-classify pool, recorded before the singular-circle
# scan became one float kernel.  The CSV floats go through the C library's
# cos and sin, so the digest is that of glibc on x86-64.
SURFACE_POOL_SHA256 = "97fad727c8a6e8a63fd00c22ea32950ee196ac0ce8284d1ff0def3b6f85c9ff3"


def test_surface_query_pool_byte_pin(tmp_path):
    path = Path(__file__).resolve().parents[1] / "bench" / "references" / "surface_queries.json"
    queries = json.loads(path.read_text())["queries"]
    assert len(queries) == 160
    circles, waist = tmp_path / "circles.csv", tmp_path / "waist.csv"
    combined = hashlib.sha256()
    for query in queries:
        for target in (circles, waist):
            target.unlink(missing_ok=True)
        out, err = io.BytesIO(), io.BytesIO()
        code = run(
            query["argv"] + [f"--singular-circles-csv={circles}", f"--waist-points-csv={waist}"], out, err
        )
        combined.update(b"%d\n" % code + out.getvalue() + err.getvalue())
        for target in (circles, waist):
            combined.update(target.read_bytes() if target.exists() else b"<none>")
    assert combined.hexdigest() == SURFACE_POOL_SHA256


@pytest.mark.parametrize("cx", ["-99999999999/100000000000", "-9999999/10000000"])
def test_surface_classify_near_miss_is_5a(cx):
    # The petal tip of CH(3,1,0) misses the axis by 1e-11 or 1e-7.
    code, out, err = invoke("surface-classify", "--n", "3", "--d", "1", "--q", "0", f"--cx={cx}")
    assert (code, err) == (0, "")
    assert '"type":"5A"' in out


def test_surface_classify_p_sugar():
    code, out, _ = invoke(
        "surface-classify", "--n", "9", "--d", "2", "--a", "2", "--q", "p=i", "--h", "1",
    )
    assert json.loads(out)["order"] == 40


def test_figure_list_and_export(tmp_path):
    code, out, _ = invoke("figure", "--list")
    assert code == 0
    assert out.splitlines()[0].startswith("3a")
    target = tmp_path / "fig3b.obj"
    code, _, _ = invoke("figure", "3b", "--nt", "64", "--ntheta", "16", "--out", str(target))
    assert code == 0
    content = target.read_text()
    assert content.startswith("v ")
    assert "\nf " in content


def test_curve_sample_stdout():
    code, out, _ = invoke("curve-sample", "--n", "1", "--d", "1", "--samples", "4")
    assert code == 0
    assert out.splitlines()[0] == "phi,x,y,z"
    assert len(out.splitlines()) == 5


def test_surface_mesh_stdout():
    code, out, _ = invoke(
        "surface-mesh", "--n", "1", "--d", "1", "--q", "1",
        "--nt", "16", "--ntheta", "8",
    )
    assert code == 0
    assert out.startswith("v ")


def test_surface_mesh_far_above_the_axis():
    # The axis test compares planar distances, so a high plane skips only the cusp row.
    code, out, err = invoke(
        "surface-mesh", "--n", "1", "--d", "1", "--a", "1", "--q", "1", "--h", "1e10",
        "--nt", "64", "--ntheta", "8",
    )
    assert (code, err) == (0, "")
    assert sum(line.startswith("v ") for line in out.splitlines()) == 63 * 8


def test_verify_table2_text_and_json():
    code, out, _ = invoke("verify", "table2")
    assert code == 0
    assert "passed, 0 failed" in out.splitlines()[-1]
    code, out, _ = invoke("verify", "table2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    validate(record, "verify_report.schema.json")
    assert record["ok"] is True


def test_verify_deterministic_output():
    args = ("verify", "table1", "--format", "json")
    first = invoke(*args)
    assert first[0] == 0
    assert invoke(*args) == first


# sha256 of the text reports of the full grids.  Both print exact integers
# only, so their bytes are the same on every platform.
VERIFY_TEXT_SHA256 = {
    "table1": "37de22605ef28f11f79dc82547d9c1962cdfa112061d0945c658ae62c9f9ba57",
    "table2": "7e159deeedf956c3df513abc7692f3ed38be43c48f885ff842e525cd287599f5",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_TEXT_SHA256))
def test_verify_exact_suites_byte_pin(suite):
    code, out, err = invoke("verify", suite)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_TEXT_SHA256[suite]


# sha256 of the ``verify invariants`` report as text and as JSON.  Its gaps
# and circle keys go through the C library's cos, sin and atan2, so the
# digests are those of glibc on x86-64.
VERIFY_INVARIANTS_SHA256 = {
    "text": "227b4391510dabb968cfe90f86270d337632caf0c777f67d6fe52cc184fe2a79",
    "json": "dbf49b1d575339e8af54de0b7c3695b27501cdd142696c59a80d02a587d8899b",
}


@pytest.mark.parametrize("form", sorted(VERIFY_INVARIANTS_SHA256))
def test_verify_invariants_byte_pin(form):
    code, out, err = invoke("verify", "invariants", "--format", form)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_INVARIANTS_SHA256[form]


def test_verify_suite_names_agree():
    # The parser takes its choices from cli, so building it imports no verify code.
    schema = load_schema("verify_report.schema.json")["properties"]["suite"]["enum"]
    assert list(VERIFY_SUITES) == schema == [*verify._SUITES, "all"]
    for suite in VERIFY_SUITES:
        assert verify.run_suite(suite).suite == suite


# -- exit codes ---------------------------------------------------------------------


def test_usage_error_exit_2():
    code, _, err = invoke("curve-props", "--n", "7")
    assert code == 2
    assert "required" in err


CLASSIFY = ("surface-classify", "--n", "3", "--d", "1", "--q", "0")
REMOVED_OPTIONS = [
    # The float tolerance of the incidence detector; incidence is decided exactly.
    (CLASSIFY, ("--tol", "1e-9")),
    # Both commands print JSON only, so --format had one value.
    (("curve-props", "--n", "3", "--d", "1"), ("--format", "json")),
    (CLASSIFY, ("--format", "json")),
    # verify runs in one process, draws nothing and always checks the paper's
    # n, d <= 9 grid, every curve of it in the residual suite too.
    (("verify", "all"), ("--seed", "1")),
    (("verify", "all"), ("--jobs", "2")),
    (("verify", "all"), ("--max-nd", "3")),
    (("verify", "residual"), ("--n", "1")),
    (("verify", "residual"), ("--d", "1")),
    (("verify", "residual"), ("--a", "1/2")),
]


@pytest.mark.parametrize(
    "argv,option",
    REMOVED_OPTIONS,
    ids=[f"{argv[0]} {option[0]}" for argv, option in REMOVED_OPTIONS],
)
def test_removed_options_exit_2(argv, option):
    code, out, err = invoke(*argv, *option)
    assert (code, out) == (2, "")
    assert option[0] in err
    code, out, _ = invoke(argv[0], "--help")
    assert code == 0
    assert option[0] not in out


def test_back_to_back_runs_share_no_values():
    # One parser serves every run; each run must see only its own arguments.
    tip = ("surface-classify", "--n", "3", "--d", "1", "--q", "0", "--cx=-1")
    centered = ("surface-classify", "--n", "3", "--d", "1", "--q", "0")
    first = invoke(*tip)
    assert json.loads(first[1])["type"] == "3A"
    second = invoke(*centered)
    assert json.loads(second[1])["type"] == "1A"
    usage = invoke("surface-classify", "--n", "3", "--q", "0")
    assert usage[0] == 2 and usage[1] == "" and "--d" in usage[2]
    assert invoke(*tip) == first
    assert invoke(*centered) == second


@pytest.mark.parametrize(
    "argv",
    [
        (
            "surface-classify", "--n", "1", "--d", "1", "--a=1", "--q=-1", "--cx=1", "--h=1e400",
            "--singular-circles-csv", "OUT",
        ),
        ("surface-classify", "--n", "1", "--d", "1", "--a=1", "--q=-1e400", "--waist-points-csv", "OUT"),
        ("surface-mesh", "--n", "1", "--d", "1", "--a=1", "--q=-1", "--cx=1e400"),
        ("curve-sample", "--n", "1", "--d", "1", "--a=1e400"),
        # Each of these fits a float, but a sample's square overflows.
        ("surface-mesh", "--n", "1", "--d", "1", "--a=1e200", "--q=1", "--nt", "8", "--ntheta", "8"),
        ("surface-mesh", "--n", "1", "--d", "1", "--a=1e160", "--q=1e300", "--nt", "8", "--ntheta", "8"),
        ("surface-classify", "--n", "1", "--d", "1", "--a=1e200", "--q=-1", "--waist-points-csv", "OUT"),
        # A square that overflows inside the radicand, then the surface extent.
        ("surface-mesh", "--n", "1", "--d", "1", "--a=1", "--q=1e300", "--nt", "8", "--ntheta", "8"),
        ("surface-classify", "--n", "1", "--d", "1", "--a=1e200", "--q=1", "--singular-circles-csv", "OUT"),
    ],
)
def test_rational_past_float_range_exit_1(tmp_path, argv):
    target = tmp_path / "out.csv"
    code, out, err = invoke(*(str(target) if token == "OUT" else token for token in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: a value is too large for floating point")
    assert err.count("\n") == 1
    assert "(34," not in err  # the message is the program's, not a bare errno tuple
    assert not target.exists()


def test_exact_commands_take_rationals_past_float_range():
    code, out, _ = invoke("curve-props", "--n", "1", "--d", "1", "--a=1e400")
    assert (code, out) == (0, '{"order":4,"origin":2,"absolute":2,"shape":"curtate"}\n')
    code, out, _ = invoke(
        "surface-classify", "--n", "1", "--d", "1", "--a=1", "--q=-1", "--cx=1", "--h=1e400"
    )
    assert code == 0 and json.loads(out)["type"] == "5B"


def test_unknown_command_exit_2():
    code, _, _ = invoke("no-such-command")
    assert code == 2


def test_domain_error_exit_1():
    code, _, err = invoke("curve-props", "--n", "6", "--d", "3")
    assert code == 1
    assert "lowest terms" in err


def test_figure_unknown_preset_exit_1():
    code, _, err = invoke("figure", "zz")
    assert code == 1
    assert "unknown figure preset" in err


@pytest.mark.parametrize("option", ["--nt", "--ntheta"])
def test_figure_zero_resolution_exit_1(option):
    code, out, err = invoke("figure", "9a", option, "0")
    assert code == 1
    assert out == ""
    assert err == "error: nt and ntheta must be at least 8\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (("figure", "9a", "--nt", "16", "--ntheta", "8"), "--out"),
        (
            ("surface-classify", "--n", "3", "--d", "1", "--cx", "1", "--q", "-1"),
            "--singular-circles-csv",
        ),
        # The first sidecar can be written and the second cannot.
        (
            ("surface-classify", "--n", "3", "--d", "1", "--cx", "1", "--q", "-1",
             "--singular-circles-csv", "OK"),
            "--waist-points-csv",
        ),
    ],
)
def test_unwritable_output_path_exit_1(tmp_path, argv, option):
    target = tmp_path / "missing" / "output"
    argv = [str(tmp_path / "ok.csv") if token == "OK" else token for token in argv]
    code, out, err = invoke(*argv, option, str(target))
    assert (code, out) == (1, "")  # nothing reaches stdout before the failure
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


@pytest.mark.parametrize(
    "argv, failure, message",
    [
        (
            ("surface-mesh", "--n", "1", "--d", "1", "--a", "1/2", "--q", "1"),
            MemoryError("Unable to allocate 2.18 TiB for an array with shape (100000000000, 3)"),
            "Unable to allocate 2.18 TiB for an array with shape (100000000000, 3)",
        ),
        (("figure", "3b"), MemoryError(), "an allocation failed"),
    ],
)
def test_out_of_memory_exit_1(monkeypatch, tmp_path, argv, failure, message):
    # The mesher raises as numpy does when a grid does not fit, before any output.
    def refuse(spec, nt, ntheta):
        raise failure

    monkeypatch.setattr("chsurf.mesh.obj_writer", refuse)
    target = tmp_path / "mesh.obj"
    code, out, err = invoke(*argv, "--nt", "100000", "--ntheta", "1000000", "--out", str(target))
    assert (code, out, err) == (1, "", f"error: not enough memory: {message}\n")
    assert not target.exists()


@pytest.mark.parametrize("size", [2**62, 2**63 - 1, 2**64])
@pytest.mark.parametrize("option", ["--nt", "--ntheta"])
def test_grid_too_large_to_exist_exit_1(tmp_path, option, size):
    # That many rows or columns is more bytes than numpy can address, so the
    # table of rows or columns is refused before any of it is computed.
    target = tmp_path / "mesh.obj"
    code, out, err = invoke("figure", "3b", option, str(size), "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "3b", "--nt", "280"),
        ("surface-mesh", "--n", "3", "--d", "1", "--q", "1", "--cx", "1", "--nt", "256"),
    ],
    ids=["figure", "surface-mesh"],
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_mesh_failure_in_the_last_band_writes_nothing(monkeypatch, tmp_path, argv, to_file):
    # The check evaluates every ring at its columns of extreme cosine and
    # sine in one call.  The last ring's vertex at the first of them is made
    # infinite there, so the only vertex that is not finite is in the last of
    # several bands.  The check fails before the first byte is written or
    # --out is opened, and it places no band.
    import chsurf.mesh

    nt = int(argv[argv.index("--nt") + 1])
    rows_per_band = chsurf.mesh._BAND_VERTICES // 96  # both meshes have 96 columns
    assert -(-nt // rows_per_band) > 1
    real_point = chsurf.mesh.parametric_point
    calls = []

    def point(*args):
        x, y, z = real_point(*args)
        calls.append(x.shape)
        x[-1, 0] = math.inf
        return x, y, z

    monkeypatch.setattr(chsurf.mesh, "parametric_point", point)
    target = tmp_path / "mesh.obj"
    code, out, err = invoke(*argv, *(["--out", str(target)] if to_file else []))
    assert (code, out) == (1, "")
    assert err == "error: a value is too large for floating point: a mesh vertex is not finite in float64\n"
    assert not target.exists()
    assert len(calls) == 1 and calls[0][1] == 4  # the rings' four extreme columns


# -- start-up: each command imports only its own modules ------------------------


_LOADED_PROBE = """
import io, json, sys
{setup}
others = ("numpy", "concurrent", "concurrent.futures", "cmath")
print(json.dumps([code, [m for m in sys.modules if m.split(".")[0] == "chsurf" or m in others]]))
"""


def loaded_modules(setup, *argv):
    """Exit code and the chsurf, numpy, concurrent and cmath modules a fresh process loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE.format(setup=setup), *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(result.stdout)
    return code, set(modules)


def loaded_by_command(*argv):
    setup = "from chsurf.cli import run\ncode = run(sys.argv[1:], io.BytesIO(), io.BytesIO())"
    return loaded_modules(setup, *argv)


def test_cli_import_does_not_load_numpy():
    # The package itself holds only its version; each name lives in its module.
    names = "import chsurf\ncode = [n for n in vars(chsurf) if n == '__version__' or n[:2] != '__']"
    assert loaded_modules(names) == (["__version__"], {"chsurf"})
    assert loaded_modules("import chsurf.cli\ncode = 0") == (0, {"chsurf", "chsurf.cli"})


@pytest.mark.parametrize(
    "argv",
    [
        ("curve-props", "--n", "7", "--d", "3", "--a", "1/4"),
        ("curve-implicit", "--n", "3", "--d", "1", "--homogeneous"),
        ("curve-sample", "--n", "3", "--d", "1", "--cx", "-1", "--samples", "8"),
    ],
)
def test_curve_commands_load_only_curve_and_poly(argv):
    assert loaded_by_command(*argv) == (
        0, {"chsurf", "chsurf.cli", "chsurf.curve", "chsurf.poly"}
    )


def test_surface_classify_does_not_load_numpy(tmp_path):
    # Every query is its own process, so the classify path stays free of
    # numpy, the mesher and the verify suites, the CSV writers included.
    code, modules = loaded_by_command(
        "surface-classify", "--n", "4", "--d", "1", "--a", "1", "--q", "-1",
        "--cx", "-1", "--cy", "1/2",
        "--singular-circles-csv", str(tmp_path / "circles.csv"),
        "--waist-points-csv", str(tmp_path / "waist.csv"),
    )
    assert code == 0
    assert "chsurf.surface" in modules
    assert not modules & {"numpy", "chsurf.mesh", "chsurf.verify"}
    assert (tmp_path / "circles.csv").read_text().count("\n") > 1
    assert (tmp_path / "waist.csv").read_text().count("\n") > 1


def test_figure_list_does_not_load_numpy():
    code, modules = loaded_by_command("figure", "--list")
    assert code == 0
    assert "chsurf.mesh" in modules and "numpy" not in modules


def test_serial_verify_loads_no_process_pool():
    code, modules = loaded_by_command("verify", "table2")
    assert code == 0
    assert not modules & {"numpy", "concurrent", "concurrent.futures"}
    code, modules = loaded_by_command("verify", "residual")
    assert code == 0
    assert "numpy" in modules
    assert not modules & {"concurrent", "concurrent.futures"}
    code, modules = loaded_by_command("verify", "all")
    assert code == 0
    assert not modules & {"concurrent", "concurrent.futures"}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, read_first",
    [
        (("verify", "table1"), 0),
        (("figure", "3b"), 0),
        (("curve-sample", "--n", "7", "--d", "3", "--samples", "200000"), 10),
    ],
    ids=["verify-table1", "figure-3b", "curve-sample"],
)
def test_closed_stdout_is_a_clean_exit_1(argv, read_first, unbuffered):
    # The reader closes the pipe before the command writes, or after 10
    # bytes of a 12 MB sample: exit 1, nothing on stderr, with buffered and
    # with unbuffered stdout.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "chsurf", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(child.stdout.read(read_first)) == read_first
    child.stdout.close()
    stderr = child.stderr.read()
    assert (child.wait(), stderr) == (1, b"")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "chsurf", "curve-props", "--n", "3", "--d", "1"],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == invoke("curve-props", "--n", "3", "--d", "1")[1]


def test_help_exit_0():
    code, out, _ = invoke("--help")
    assert code == 0
    assert "curve-props" in out


def test_negative_fractions_as_separate_arguments():
    base = ("surface-classify", "--n", "3", "--d", "1")
    separate = invoke(*base, "--q", "-1/4", "--cx", "-1/2")
    joined = invoke(*base, "--q=-1/4", "--cx=-1/2")
    assert separate[0] == 0
    assert separate == joined


@pytest.mark.parametrize(
    "option,value", [("--cx", "-1e3"), ("--cx", "-1.5e-1"), ("--h", "-2.5E-1"), ("--cy", "-.5")]
)
def test_negative_exponent_values_as_separate_arguments(option, value):
    base = ("surface-classify", "--n", "3", "--d", "1", "--q", "1")
    separate = invoke(*base, option, value)
    assert separate[0] == 0, separate[2]
    assert separate == invoke(*base, f"{option}={value}")


def test_classification_disagreement_exit_1(monkeypatch):
    monkeypatch.setitem(CLASSIFICATION_TABLE, (2, "B", "lt"), lambda n, d, j: (1, 1, 1, 1))
    code, out, err = invoke(
        "surface-classify", "--n", "9", "--d", "2", "--a", "2", "--q", "-1", "--h", "1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: classification paths disagree")

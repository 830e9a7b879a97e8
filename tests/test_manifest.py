import pytest

import manifest

COUNT = "e3667f7d8c030260bf49046f955ec9bebdb9a4cb8a66b812fd498ded5431a821 0 ci:30 count --r 2 --n 5"
CHECK = "f5c8dfbfec366cd38ac1935ee027deb1745db13162730fc8a26bbbfac224f77d 1 ci:30 check --perm 315642 --r 3"


def write(tmp_path, *lines):
    path = tmp_path / "stdout.sha256"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_committed_manifest_parses_and_has_both_tiers():
    pins = manifest.read()
    assert {pin.timeout is None for pin in pins} == {True, False}


def test_runner_passes_on_matching_lines(tmp_path, capsys):
    path = write(tmp_path, "# cheap lines", "", COUNT, CHECK)
    assert manifest.main([str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["ok", "ok"]
    assert out[0].endswith("line 3: count --r 2 --n 5")


def test_a_line_peaks_at_its_own_size_not_the_runners(tmp_path):
    # Linux carries a spawning process's peak RSS into its child across
    # exec, so a command spawned by the runner itself would read at least
    # the runner's 64 MB of ballast; the count alone peaks near 15 MB.
    ballast = b"x" * (64 << 20)
    (pin,) = manifest.read(write(tmp_path, COUNT))
    why, _, peak_mb = manifest.run(pin)
    assert len(ballast) == 64 << 20
    assert why == "" and peak_mb < 32


def test_a_line_fails_at_its_own_peak_ceiling(tmp_path, capsys):
    # Both commands peak near 15 MB: under a 64 MB ceiling the check passes,
    # under a 10 MB one the count fails; a line without one keeps CEILING_MB.
    assert [pin.ceiling_mb for pin in manifest.read(write(tmp_path, COUNT))] == [manifest.CEILING_MB]
    path = write(tmp_path, CHECK.replace("ci:30", "ci:30:64"), COUNT.replace("ci:30", "ci:30:10"))
    assert [(pin.timeout, pin.ceiling_mb) for pin in manifest.read(path)] == [(30, 64), (30, 10)]
    assert manifest.main([str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["ok", "FAILED"]
    assert out[1].endswith("line 2: count --r 2 --n 5: peak reached 10 MB")


def test_a_line_past_its_timeout_is_killed_with_its_spawner(tmp_path):
    # The corollary count runs for seconds; the runner must not wait for it.
    line = COUNT.replace("ci:30 count --r 2 --n 5", "ci:1 count --r 2000 --n 4000 --method corollary")
    (pin,) = manifest.read(write(tmp_path, line))
    why, seconds, _ = manifest.run(pin)
    assert why.startswith("timed out at 1 s; exit code -9") and seconds < 2.5


@pytest.mark.parametrize(
    "lines, why",
    [
        ([COUNT.replace("e366", "e367"), CHECK], "line 1: count --r 2 --n 5: sha256 e3667f7d"),
        ([COUNT, CHECK.replace(" 1 ci:", " 0 ci:")], "line 2: check --perm 315642 --r 3: exit code 1, pinned 0"),
    ],
    ids=["hash", "exit-code"],
)
def test_runner_fails_and_names_a_changed_line(tmp_path, capsys, lines, why):
    assert manifest.main([str(write(tmp_path, *lines))]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAILED")]
    assert len(failed) == 1 and why in failed[0]


@pytest.mark.parametrize(
    "line, why",
    [
        (COUNT.replace("e366", "E366"), "the hash is not 64 lowercase hex digits"),
        (COUNT[1:], "the hash is not 64 lowercase hex digits"),
        (COUNT.replace(" 0 ci:", " zero ci:"), "exit code 'zero' is not an integer"),
        (COUNT.replace("ci:30", "ci"), "unknown tier 'ci'"),
        (COUNT.replace("ci:30", "ci:0"), "unknown tier 'ci:0'"),
        (COUNT.replace("ci:30", "nightly"), "unknown tier 'nightly'"),
        (COUNT.split(" count")[0], "no argv"),
        (COUNT.replace("ci:30", "ci:5"), "this argv is already pinned in tier ci"),
        (COUNT.replace("ci:30", "ci:30:0"), "unknown tier 'ci:30:0'"),
        (COUNT.replace("ci:30", "ci:30:70:1"), "unknown tier 'ci:30:70:1'"),
    ],
    ids=["upper-hex", "short-hash", "exit-code", "bare-ci", "zero-seconds", "unknown", "no-argv", "repeated", "zero-mb", "three-fields"],
)
def test_read_refuses_a_malformed_line(tmp_path, line, why):
    path = write(tmp_path, COUNT, line)
    with pytest.raises(ValueError) as refusal:
        manifest.read(path)
    assert str(refusal.value) == f"{path}:2: {why}"


def test_same_argv_in_both_tiers_is_accepted(tmp_path):
    pins = manifest.read(write(tmp_path, COUNT, COUNT.replace("ci:30", "test")))
    assert [pin.timeout for pin in pins] == [30, None]


def test_runner_refuses_a_manifest_with_no_ci_line(tmp_path, capsys):
    path = write(tmp_path, COUNT.replace("ci:30", "test"))
    assert manifest.main([str(path)]) == 1
    assert capsys.readouterr().out == f"{path}: no ci line\n"

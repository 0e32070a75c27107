"""Record the cli-session goldens: the `--json` stdout of each README
command, run in README order from a clean working directory.

    python3 perfbench/record_goldens.py

The goldens pin the CLI output byte for byte; re-record them only when an
output change is intended.
"""
import expected
import workloads


def main():
    workloads.reset_cli_dir()
    env = workloads.cli_env()
    workloads.GOLDENS.mkdir(exist_ok=True)
    for name in workloads.cli_units(0):
        code, stdout = workloads.run_cli(name, env)
        want = expected.CLI_EXIT.get(name, 0)
        if code != want:
            raise SystemExit("%s exited %d, expected %d" % (name, code, want))
        (workloads.GOLDENS / ("%s.out" % name)).write_bytes(stdout)
        print("recorded %s (%d bytes)" % (name, len(stdout)))


if __name__ == "__main__":
    main()

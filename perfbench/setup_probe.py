"""Set-up probe: import memkern from a source tree and parse one config.

Run in a fresh interpreter by ``run.py``, which times the interval from
starting this process to reading its ``ready`` line.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON
"""

import sys


def main() -> int:
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import memkern.cli  # noqa: F401 - the entry point's import is the cost
    from memkern.config import parse_config

    parse_config(config)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

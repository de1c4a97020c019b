"""Pass only if the failed or errored cases of a junit file are exactly the expected ones.

    python .github/known_failures.py JUNIT_XML [CLASSNAME::NAME ...]

Cases are named as pytest writes them to the junit file.  Each unexpected
failure and each expected failure that passed is printed, and the exit
status is 1 if there is any.
"""

import sys
import xml.etree.ElementTree as ET


def main(argv: list[str]) -> int:
    path, expected = argv[0], set(argv[1:])
    failed = {f"{case.get('classname')}::{case.get('name')}"
              for case in ET.parse(path).getroot().iter("testcase")
              if case.find("failure") is not None or case.find("error") is not None}
    for name in sorted(failed ^ expected):
        print(("unexpected failure: " if name in failed else "expected failure passed: ") + name)
    return int(failed != expected)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

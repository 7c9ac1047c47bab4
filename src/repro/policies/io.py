"""Reading and writing privacy and utility policies.

The Configuration Editor can load policies from files and the Data Export
Module can write them back.  The file format is line-oriented:

Privacy policy files start with a ``k=<value>`` line; every following line is
one constraint, its items separated by spaces::

    k=5
    i001
    i002 i017

Utility policy files contain one constraint (item group) per line::

    i001 i002 i003
    i004 i005
"""

from __future__ import annotations

from pathlib import Path

from repro.exceptions import PolicyError
from repro.policies.privacy import PrivacyConstraint, PrivacyPolicy
from repro.policies.utility import UtilityConstraint, UtilityPolicy


def write_privacy_policy_text(policy: PrivacyPolicy) -> str:
    lines = [f"k={policy.k}"]
    for constraint in policy:
        lines.append(" ".join(sorted(constraint.items)))
    return "\n".join(lines) + "\n"


def read_privacy_policy_text(text: str) -> PrivacyPolicy:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise PolicyError("privacy policy file is empty")
    header = lines[0].replace(" ", "")
    if not header.lower().startswith("k="):
        raise PolicyError("privacy policy file must start with a 'k=<value>' line")
    try:
        k = int(header[2:])
    except ValueError:
        raise PolicyError(f"invalid protection level in header {lines[0]!r}") from None
    constraints = [PrivacyConstraint(line.split()) for line in lines[1:]]
    if not constraints:
        raise PolicyError("privacy policy file defines no constraints")
    return PrivacyPolicy(constraints, k=k)


def save_privacy_policy(policy: PrivacyPolicy, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(write_privacy_policy_text(policy), encoding="utf-8")
    return path


def _read_policy_file(path: Path, kind: str) -> str:
    """The text of a UTF-8 policy file, without a leading byte-order mark."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as error:
        raise PolicyError(f"cannot read {kind} policy file {path}: {error}") from error
    except UnicodeDecodeError as error:
        raise PolicyError(f"{kind} policy file {path} is not UTF-8: {error}") from error


def load_privacy_policy(path: str | Path) -> PrivacyPolicy:
    return read_privacy_policy_text(_read_policy_file(Path(path), "privacy"))


def write_utility_policy_text(policy: UtilityPolicy) -> str:
    lines = [" ".join(sorted(constraint.items)) for constraint in policy]
    return "\n".join(lines) + "\n"


def read_utility_policy_text(text: str) -> UtilityPolicy:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise PolicyError("utility policy file is empty")
    return UtilityPolicy([UtilityConstraint(line.split()) for line in lines])


def save_utility_policy(policy: UtilityPolicy, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(write_utility_policy_text(policy), encoding="utf-8")
    return path


def load_utility_policy(path: str | Path) -> UtilityPolicy:
    return read_utility_policy_text(_read_policy_file(Path(path), "utility"))

"""Crypto-boundary rules (CB*): substrate containment and key-role hygiene.

The reproduction builds HMAC-SHA256, the PRF, and the CTR cipher from
scratch inside :mod:`repro.crypto` because the paper (§3.3, §6) specifies
its protocols directly in terms of those primitives. Two boundaries keep
that substrate honest:

* stdlib ``hashlib``/``hmac`` may appear only inside ``repro.crypto``
  (where the from-scratch constructions bottom out in SHA-256) — protocol
  or simulator code importing them would bypass the audited substrate.
  ``repro.net.rng`` carries an inline allow for its seed-derivation use.
* §3.3 derives *separate* subkeys for MAC computation and encryption
  (``repro.crypto.keys.derive_key`` roles); feeding a MAC subkey into the
  cipher (or vice versa) collapses that domain separation.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.audit.engine import Finding, ModuleContext, Rule

#: Modules allowed to import the stdlib hash/MAC primitives.
CRYPTO_SCOPE = ("repro.crypto",)

_STDLIB_CRYPTO = frozenset({"hashlib", "hmac"})

#: Encryption sinks (constructors/functions that expect an *encryption*
#: subkey) and the identifier substrings that mark a MAC-role key.
_ENC_SINKS = frozenset({"StreamCipher"})
_MAC_KEY_MARKERS = ("mac_key", "mac_keys")

#: MAC sinks (expect a *MAC* subkey) and encryption-role key markers.
_MAC_SINKS = frozenset({"mac", "verify_mac", "hmac_sha256"})
_ENC_KEY_MARKERS = ("enc_key", "enc_keys", "encryption_key")


class StdlibCryptoImportRule(Rule):
    """CB001 — stdlib ``hashlib``/``hmac`` outside ``repro.crypto``."""

    id = "CB001"
    family = "crypto-boundary"
    summary = "stdlib `hashlib`/`hmac` import outside `repro.crypto`"
    rationale = (
        "The paper's protocols are specified in terms of the from-scratch "
        "substrate in `repro.crypto` (HMAC per RFC 2104, PRF, CTR cipher); "
        "importing stdlib `hashlib`/`hmac` elsewhere bypasses the audited "
        "constructions. `repro.net.rng`'s SHA-256 stream derivation is the "
        "deliberate, inline-allowed exception."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_module(*CRYPTO_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in names:
                if name in _STDLIB_CRYPTO:
                    yield self.finding(
                        ctx,
                        node,
                        f"stdlib `{name}` imported outside `repro.crypto`; "
                        "use the substrate in `repro.crypto` "
                        "(hashing/mac/prf) instead",
                    )


def _terminal_name(func: ast.AST) -> Optional[str]:
    """Last component of a call target (``keys.mac_key`` -> ``mac_key``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _contains_key_role(node: ast.AST, markers: "tuple[str, ...]", role: str) -> bool:
    """True when the expression references a key of the given role.

    Matches identifier/attribute names carrying a role marker
    (``mac_key``, ``enc_keys``, ...) and ``derive_key(master, "<role>")``
    calls with a literal role string.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and any(
            marker in sub.attr for marker in markers
        ):
            return True
        if isinstance(sub, ast.Name) and any(
            marker in sub.id for marker in markers
        ):
            return True
        if (
            isinstance(sub, ast.Call)
            and _terminal_name(sub.func) == "derive_key"
            and len(sub.args) >= 2
            and isinstance(sub.args[1], ast.Constant)
            and sub.args[1].value == role
        ):
            return True
    return False


class KeyRoleCrossUseRule(Rule):
    """CB002 — MAC subkey fed to the cipher, or encryption subkey to a MAC."""

    id = "CB002"
    family = "crypto-boundary"
    summary = "MAC/encryption subkey used in the opposite role"
    rationale = (
        "§3.3 derives role-separated subkeys from each pairwise master "
        "key (`repro.crypto.keys`): `mac_key` for authentication, "
        "`encryption_key` for PAAI-2 onion layers. Cross-use collapses "
        "the PRF domain separation those roles provide."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _terminal_name(node.func)
            if name in _ENC_SINKS:
                key_args = list(node.args[:1]) + [
                    kw.value for kw in node.keywords if kw.arg == "key"
                ]
                for arg in key_args:
                    if _contains_key_role(arg, _MAC_KEY_MARKERS, "mac"):
                        yield self.finding(
                            ctx,
                            node,
                            f"`{name}(...)` receives a MAC-role key; use "
                            "`KeyManager.encryption_key` / "
                            "`derive_key(master, \"enc\")`",
                        )
                        break
            elif name in _MAC_SINKS:
                key_args = list(node.args[:1]) + [
                    kw.value for kw in node.keywords if kw.arg == "key"
                ]
                for arg in key_args:
                    if _contains_key_role(arg, _ENC_KEY_MARKERS, "enc"):
                        yield self.finding(
                            ctx,
                            node,
                            f"`{name}(...)` receives an encryption-role "
                            "key; use `KeyManager.mac_key` / "
                            "`derive_key(master, \"mac\")`",
                        )
                        break


RULES = (
    StdlibCryptoImportRule(),
    KeyRoleCrossUseRule(),
)

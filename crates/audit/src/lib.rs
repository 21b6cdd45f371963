//! # phom-audit
//!
//! Correctness tooling for the `p-hom` workspace, in two halves:
//!
//! * a **project lint pass** — a self-contained token-level scanner over
//!   the workspace's own sources enforcing project-specific discipline
//!   that `clippy` cannot know about: no `unwrap`/`expect`/`panic!` in
//!   library code, wall-clock reads only through the injected-time
//!   seams, backend-agnostic public matching signatures, zero-alloc
//!   journal emission, and docs on public API items. Findings carry
//!   `file:line` + a stable rule id; inline waivers
//!   (`// phom-lint: allow(<rule>, "<reason>")`) require a reason, and a
//!   committed baseline makes the CI gate ratchetable. Surfaced as
//!   `phom lint`.
//! * **structural invariant validators** — the driver over the
//!   `validate()` / `validate_against()` methods every reachability
//!   backend, semi-dynamic maintainer, and the sharded registry expose,
//!   applied to serialized engine snapshots. Surfaced as `phom audit`
//!   and wired into the snapshot-restore gate every `Service::restore`
//!   passes.
//!
//! The lexer is hand-rolled (no syn/proc-macro dependency): the rules
//! only need token streams with comment and line fidelity, and the
//! workspace policy is no new external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod lexer;
pub mod lint;
pub mod rules;

pub use audit::{audit_snapshot, AuditError, AuditReport};
pub use lexer::{lex, Lexed};
pub use lint::{lint_paths, lint_workspace, LintReport};
pub use rules::{check_file, FileClass, Finding, RULE_IDS};

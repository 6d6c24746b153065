//! Span-carrying diagnostics: stable codes, severities, and the text and
//! JSON renderers.
//!
//! Every diagnostic carries a stable `OM0xx` code so fixtures, CI greps,
//! and downstream tooling can match on them; the human-readable message
//! is free to improve without breaking anything.

use om_lang::SourcePos;
use om_obs::json;
use std::fmt;

/// Diagnostic severity, ordered `Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Registry entry for one diagnostic code.
#[derive(Clone, Copy, Debug)]
pub struct CodeInfo {
    pub code: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
    /// One-paragraph explanation for `omc lint --explain`.
    pub explain: &'static str,
    /// Minimal triggering example. When it starts with `model` or
    /// `class` it is lintable source that fires the code (cross-checked
    /// by a test); schedule-level codes, which well-formed source cannot
    /// trigger, describe the synthetic schedule instead.
    pub example: &'static str,
}

/// The full table of diagnostic codes. The default severity here is what
/// [`Diagnostic::new`] assigns; it is part of the stable interface
/// documented in DESIGN.md.
pub const CODES: &[CodeInfo] = &[
    CodeInfo {
        code: "OM001",
        severity: Severity::Error,
        summary: "parse error",
        explain: "The source text could not be lexed or parsed. Nothing downstream \
                  of the parser runs; fix the syntax error first.",
        example: "model P;\n  Real x\nequation\n  der(x) = -x;\nend P;",
    },
    CodeInfo {
        code: "OM002",
        severity: Severity::Error,
        summary: "flattening failed",
        explain: "The class tree could not be flattened into a scalar equation \
                  system — most commonly a constant array index outside the \
                  declared dimension, or an unsupported binding. The position \
                  points at the defining class.",
        example: "model O; Real[3] u(start=0.1);\nequation\n  der(u[1]) = -u[1];\n  der(u[2]) = -u[2];\n  der(u[3]) = -u[4];\nend O;",
    },
    CodeInfo {
        code: "OM010",
        severity: Severity::Error,
        summary: "unresolved reference or unknown function",
        explain: "An equation references a name that is not a member of the class \
                  (or of the part it selects into), or calls a function the \
                  expression language does not define. Every unresolved reference \
                  in the model is reported, not just the first.",
        example: "model U; Real x(start=1.0);\nequation\n  der(x) = -x + missing;\nend U;",
    },
    CodeInfo {
        code: "OM011",
        severity: Severity::Error,
        summary: "duplicate member in one class",
        explain: "The same member name is declared twice in one class body. The \
                  diagnostic points at the second declaration and names the first.",
        example: "model D;\n  Real x(start=1.0);\n  Real x;\nequation\n  der(x) = -x;\nend D;",
    },
    CodeInfo {
        code: "OM012",
        severity: Severity::Error,
        summary: "member shadows an inherited member",
        explain: "A derived class re-declares a member it already inherits via \
                  `extends`. Shadowing silently splits what reads as one variable \
                  into two; rename one of them.",
        example: "class Base;\n  Real x(start=1.0);\nequation\n  der(x) = -x;\nend Base;\n\nmodel Sh extends Base;\n  Real x(start=2.0);\nend Sh;",
    },
    CodeInfo {
        code: "OM013",
        severity: Severity::Error,
        summary: "structurally singular (unmatched equations/unknowns)",
        explain: "The system is balanced but no perfect matching exists between \
                  equations and unknowns on the occurrence graph — some unknown is \
                  over-determined and another never determined. The diagnostic \
                  lists the unmatched equations and unknowns from the bipartite \
                  matching.",
        example: "model S;\n  Real x(start=1.0);\n  Real a;\n  Real b;\nequation\n  der(x) = -x + a;\n  a = x + 1.0;\n  a = x - 1.0;\nend S;",
    },
    CodeInfo {
        code: "OM014",
        severity: Severity::Error,
        summary: "unbalanced system (equations vs unknowns)",
        explain: "The flattened system has a different number of equations and \
                  unknowns (array classes count once per iteration). When \
                  equations are missing, variables occurring in no equation are \
                  listed as the likely culprits.",
        example: "model B;\n  Real x(start=1.0);\n  Real extra;\nequation\n  der(x) = -x;\nend B;",
    },
    CodeInfo {
        code: "OM015",
        severity: Severity::Error,
        summary: "duplicate derivative definition",
        explain: "Two equations (or two array-equation classes, or a class and a \
                  scalar equation) both define der(x) for the same state. Each \
                  state's derivative must be written exactly once.",
        example: "model DD;\n  Real x(start=1.0);\n  Real y(start=0.0);\nequation\n  der(x) = -x;\n  der(x) = x + y;\nend DD;",
    },
    CodeInfo {
        code: "OM020",
        severity: Severity::Warn,
        summary: "unused variable (affects no derivative)",
        explain: "The variable is computed but feeds no derivative, directly or \
                  transitively — it cannot influence the simulation result.",
        example: "model UV;\n  Real x(start=1.0);\n  Real dead;\nequation\n  der(x) = -x;\n  dead = x * 2.0;\nend UV;",
    },
    CodeInfo {
        code: "OM021",
        severity: Severity::Warn,
        summary: "dead equation (defines an unused variable)",
        explain: "The equation defines a variable that OM020 found unused; the \
                  equation is dead work evaluated on every right-hand side call.",
        example: "model UV;\n  Real x(start=1.0);\n  Real dead;\nequation\n  der(x) = -x;\n  dead = x * 2.0;\nend UV;",
    },
    CodeInfo {
        code: "OM022",
        severity: Severity::Info,
        summary: "state has no explicit start value",
        explain: "A state variable has no `start` attribute and silently \
                  integrates from 0. Make the initial condition explicit.",
        example: "model UI;\n  Real x;\n  Real v(start=0.5);\nequation\n  der(x) = v;\n  der(v) = -x;\nend UI;",
    },
    CodeInfo {
        code: "OM030",
        severity: Severity::Warn,
        summary: "division by a constant zero",
        explain: "A denominator is syntactically the constant 0 — the expression \
                  is non-finite at every evaluation.",
        example: "model DZ;\n  Real x(start=1.0);\nequation\n  der(x) = -x / 0.0;\nend DZ;",
    },
    CodeInfo {
        code: "OM031",
        severity: Severity::Warn,
        summary: "sqrt/log of a provably negative constant",
        explain: "sqrt or log is applied to a constant that folds to a value \
                  outside the function's domain, producing NaN at every \
                  evaluation.",
        example: "model SN;\n  Real x(start=1.0);\nequation\n  der(x) = -x + sqrt(-4.0);\nend SN;",
    },
    CodeInfo {
        code: "OM032",
        severity: Severity::Info,
        summary: "constant-foldable subexpression",
        explain: "A subexpression is constant and folds at compile time; writing \
                  the value directly states intent and avoids repeated work in \
                  interpreters that do not fold.",
        example: "model CF;\n  Real x(start=1.0);\nequation\n  der(x) = -(2.0 + 3.0) * x;\nend CF;",
    },
    CodeInfo {
        code: "OM040",
        severity: Severity::Error,
        summary: "write-write race between same-level tasks",
        explain: "Two tasks the executor may run concurrently (same barrier \
                  level, or no dependency path at edge granularity) write the \
                  same output slot — the final value depends on scheduling. The \
                  array-aware pipeline decides this symbolically via the \
                  dependence-test lattice (exact Diophantine, Banerjee, GCD) \
                  without expanding loop tasks.",
        example: "(synthetic schedule) tasks `a` and `b` in one parallel level, both writing deriv[0];\nor two loop tasks with overlapping affine write maps 0+1·k and 15+1·k.",
    },
    CodeInfo {
        code: "OM041",
        severity: Severity::Error,
        summary: "read-write race between same-level tasks",
        explain: "A concurrency-eligible pair writes and reads the same shared \
                  intermediate slot; the reader may observe the value before or \
                  after the write depending on scheduling. State reads never \
                  conflict — the state vector is frozen during a right-hand-side \
                  evaluation.",
        example: "(synthetic schedule) task `p` writes shared[0] in the same parallel level\nas task `c`, which reads shared[0] — with no dependency edge ordering them.",
    },
    CodeInfo {
        code: "OM042",
        severity: Severity::Error,
        summary: "coverage violation (slot not written exactly once)",
        explain: "Across the whole task graph, some derivative or shared slot is \
                  written zero times or more than once — the schedule does not \
                  implement the equation system (every equation must live in \
                  exactly one task). Checked symbolically on loop-task write \
                  patterns: injectivity, pairwise disjointness, and pigeonhole \
                  coverage of the slot range.",
        example: "(synthetic schedule) dim = 9 but the only loop task writes the affine\nrange 0+1·k (k < 8): deriv[8] has no writer.",
    },
    CodeInfo {
        code: "OM043",
        severity: Severity::Warn,
        summary: "false dependency (edge not justified by dataflow)",
        explain: "A dependency edge orders two tasks although the dependent task \
                  reads nothing its predecessor writes. The schedule is still \
                  correct, but the edge throttles parallelism for no gain.",
        example: "(synthetic schedule) task `b` depends on task `a`, but `a` writes only\nderiv slots and `b` reads no shared slot `a` produces.",
    },
    CodeInfo {
        code: "OM050",
        severity: Severity::Error,
        summary: "compilable-subset violation",
        explain: "The causalized system falls outside the subset the code \
                  generator can translate: a leftover derivative marker or tuple, \
                  a non-finite constant, an unknown symbol, or a broken \
                  states/derivs layout (including array-class row invariants).",
        example: "model NF;\n  Real x(start=1.0);\n  parameter Real k = 1.0 / 0.0;\nequation\n  der(x) = -k * x;\nend NF;",
    },
    CodeInfo {
        code: "OM051",
        severity: Severity::Error,
        summary: "causalization failed",
        explain: "Equation sorting failed in a way the structural passes did not \
                  already explain — typically an algebraic loop (mutually \
                  dependent algebraic equations), which the paper's pipeline \
                  does not solve.",
        example: "model AL;\n  Real x(start=1.0);\n  Real a;\n  Real b;\nequation\n  der(x) = a;\n  a = b + x;\n  b = a - x;\nend AL;",
    },
    CodeInfo {
        code: "OM060",
        severity: Severity::Info,
        summary: "array equation scalarized (no uniform class)",
        explain: "An array equation group could not be kept symbolic under \
                  array-aware flattening (non-uniform index pattern, row \
                  conflict, or unstable ordering) and fell back to element-wise \
                  scalarization. Results are bitwise identical; only compile \
                  scaling is lost.",
        example: "model N; Real[6] u(start=0.2);\nequation\n  der(u[1]) = -u[1];\n  for i in 2:5 loop\n    der(u[i]) = 4.5*u[i-1] - 8.0*u[i] + 3.5*u[1] * i;\n  end for;\n  der(u[6]) = -u[6];\nend N;",
    },
    CodeInfo {
        code: "OM070",
        severity: Severity::Error,
        summary: "loop-carried dependence in a parallel loop task",
        explain: "Inside a single array-loop task, iteration k reads a slot that \
                  iteration k−d writes (decided on the symbolic per-iteration \
                  affine maps). The task's iterations are executed in parallel \
                  chunks, so the read may observe the old value. Only the \
                  symbolic engine can express this: expansion flattens the \
                  iteration structure away.",
        example: "(synthetic schedule) one loop task whose write map is 8+1·k and whose\nread map over the same space is 7+1·k: iteration k reads what k-1 wrote.",
    },
    CodeInfo {
        code: "OM071",
        severity: Severity::Error,
        summary: "array index out of bounds for some loop iteration",
        explain: "Interval abstract interpretation of an affine index over the \
                  loop's trip range proves the index escapes the declared array \
                  dimension at some iteration (the diagnostic names it). \
                  Relational if-guards on the loop variable refine the interval, \
                  so guarded boundary stencils lint clean.",
        example: "model O; Real[8] u(start=0.1);\nequation\n  der(u[1]) = -u[1];\n  for i in 2:8 loop der(u[i]) = u[i-1] + u[i+1]; end for;\nend O;",
    },
    CodeInfo {
        code: "OM072",
        severity: Severity::Warn,
        summary: "loop-carried recurrence serializes a for-equation group",
        explain: "An algebraic for-equation defines w[i] from w[i±d] of the same \
                  group: each iteration depends on another one's result, so the \
                  group can never become a parallel array class — it serializes \
                  or scalarizes. Derivative stencils (der(u[i]) from u[i−1]) are \
                  exempt: state reads see the frozen state vector.",
        example: "model R; Real x(start=1.0); Real[4] w;\nequation\n  der(x) = -x;\n  w[1] = x;\n  for i in 2:4 loop w[i] = 0.5*w[i-1]; end for;\nend R;",
    },
];

/// Look up the registry entry for a code.
pub fn code_info(code: &str) -> Option<&'static CodeInfo> {
    CODES.iter().find(|c| c.code == code)
}

/// One finding: stable code, severity, position, message.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    pub code: &'static str,
    pub severity: Severity,
    /// `0:0` (the `SourcePos` default) means "no source position" —
    /// schedule-level diagnostics refer to generated tasks, not lines.
    pub pos: SourcePos,
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic with the code's registered default severity.
    ///
    /// Panics in debug builds if `code` is not in [`CODES`]; unknown
    /// codes fall back to `Error` in release builds.
    pub fn new(code: &'static str, pos: SourcePos, message: impl Into<String>) -> Diagnostic {
        let severity = match code_info(code) {
            Some(info) => info.severity,
            None => {
                debug_assert!(false, "diagnostic code `{code}` is not registered");
                Severity::Error
            }
        };
        Diagnostic {
            code,
            severity,
            pos,
            message: message.into(),
        }
    }
}

/// How the generated schedule was verified, for the report footer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleSummary {
    /// Flattening mode the schedule came from: `"oracle"` or `"array-aware"`.
    pub mode: &'static str,
    /// Which engine produced the verdicts: `"concrete"` for the expanded
    /// detector, `"symbolic"` when the affine screens proved the schedule
    /// clean without expansion, `"symbolic (expanded)"` when a screen hit
    /// forced expansion to pinpoint concrete diagnostics.
    pub engine: &'static str,
    /// Total tasks in the verified graph.
    pub tasks: usize,
    /// How many of those are symbolic loop tasks (0 in oracle mode).
    pub loop_tasks: usize,
}

/// The result of a lint run: an ordered list of diagnostics.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Set iff the pipeline got far enough to verify a generated schedule.
    pub schedule: Option<ScheduleSummary>,
}

impl Report {
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Does any diagnostic carry this code?
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Sorted, deduplicated list of codes present in the report.
    pub fn distinct_codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Order diagnostics by source position (position-less ones last),
    /// then by code. The sort is stable, so same-position diagnostics
    /// keep pass order.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by_key(|d| (d.pos == SourcePos::default(), d.pos.line, d.pos.col, d.code));
    }

    /// Render as one `file:line:col: severity[CODE]: message` line per
    /// diagnostic plus a summary line.
    pub fn render_text(&self, file: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if d.pos == SourcePos::default() {
                out.push_str(&format!(
                    "{file}: {}[{}]: {}\n",
                    d.severity, d.code, d.message
                ));
            } else {
                out.push_str(&format!(
                    "{file}:{}:{}: {}[{}]: {}\n",
                    d.pos.line, d.pos.col, d.severity, d.code, d.message
                ));
            }
        }
        if let Some(s) = &self.schedule {
            out.push_str(&format!(
                "{file}: schedule verified: {} ({}, {} task(s), {} loop task(s))\n",
                s.mode, s.engine, s.tasks, s.loop_tasks
            ));
        }
        out.push_str(&format!(
            "{file}: {} error(s), {} warning(s), {} info\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        out
    }

    /// Render as a single machine-readable JSON object (schema in
    /// DESIGN.md): `{"file", "diagnostics": [...], "summary": {...}}`.
    /// Positions use 1-based line/col; 0 means "no position".
    pub fn render_json(&self, file: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"file\":\"");
        out.push_str(&json::escape(file));
        out.push_str("\",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
                d.code,
                d.severity,
                d.pos.line,
                d.pos.col,
                json::escape(&d.message)
            ));
        }
        out.push(']');
        if let Some(s) = &self.schedule {
            out.push_str(&format!(
                ",\"schedule\":{{\"mode\":\"{}\",\"engine\":\"{}\",\"tasks\":{},\"loop_tasks\":{}}}",
                s.mode, s.engine, s.tasks, s.loop_tasks
            ));
        }
        out.push_str(&format!(
            ",\"summary\":{{\"error\":{},\"warning\":{},\"info\":{}}}}}",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for c in CODES {
            assert!(seen.insert(c.code), "duplicate code {}", c.code);
            assert!(c.code.starts_with("OM") && c.code.len() == 5, "{}", c.code);
        }
    }

    #[test]
    fn new_uses_registered_severity() {
        let d = Diagnostic::new("OM030", SourcePos::new(3, 7), "1/0");
        assert_eq!(d.severity, Severity::Warn);
        let d = Diagnostic::new("OM013", SourcePos::default(), "singular");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn text_render_includes_position_and_summary() {
        let mut r = Report::default();
        r.push(Diagnostic::new(
            "OM030",
            SourcePos::new(3, 7),
            "division by zero",
        ));
        let text = r.render_text("m.om");
        assert!(text.contains("m.om:3:7: warning[OM030]: division by zero"));
        assert!(text.contains("0 error(s), 1 warning(s), 0 info"));
    }

    #[test]
    fn json_render_escapes_and_counts() {
        let mut r = Report::default();
        r.push(Diagnostic::new(
            "OM010",
            SourcePos::new(1, 2),
            "bad \"name\"",
        ));
        let json = r.render_json("a\\b.om");
        assert!(json.contains("\"file\":\"a\\\\b.om\""));
        assert!(json.contains("\"message\":\"bad \\\"name\\\"\""));
        assert!(json.contains("\"summary\":{\"error\":1,\"warning\":0,\"info\":0}"));
    }

    #[test]
    fn sort_puts_positionless_last() {
        let mut r = Report::default();
        r.push(Diagnostic::new("OM040", SourcePos::default(), "race"));
        r.push(Diagnostic::new("OM030", SourcePos::new(2, 1), "hazard"));
        r.sort();
        assert_eq!(r.diagnostics[0].code, "OM030");
        assert_eq!(r.diagnostics[1].code, "OM040");
    }
}

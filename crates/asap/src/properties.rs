//! The full 21-LTL-property verification suite.
//!
//! The paper reports: *"ASAP verification takes ≈150s for a total of 21
//! LTL properties"* (§5, Verification Cost) — the combined VRASED +
//! APEX + ASAP property set re-checked over the modified hardware.
//! This module reproduces that suite: 21 named properties distributed
//! over five monitor models, each checked with the `ltl-mc`
//! explicit-state model checker.

use crate::monitor::{AsapMonitor, IvtGuard};
use apex_pox::monitor::ApexMonitor;
use ltl_mc::fsm::{kripke_of, kripke_of_constrained};
use ltl_mc::mc::{check_suite, CheckStats};
use std::time::Duration;
use vrased::hw::{KeyGuard, SwAttAtomicity};

/// One row of the verification report.
#[derive(Debug, Clone)]
pub struct PropertyRow {
    /// Property name (P01–P21 with its formula).
    pub name: String,
    /// Which monitor model it was checked against.
    pub model: &'static str,
    /// Whether it holds.
    pub holds: bool,
    /// Model-checking statistics.
    pub stats: CheckStats,
    /// Time spent on this property.
    pub elapsed: Duration,
}

/// The whole suite's outcome.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    /// Per-property rows (21 of them).
    pub rows: Vec<PropertyRow>,
}

impl SuiteReport {
    /// True when every property holds.
    pub fn all_hold(&self) -> bool {
        self.rows.iter().all(|r| r.holds)
    }

    /// Total wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.rows.iter().map(|r| r.elapsed).sum()
    }

    /// Total product states explored.
    pub fn total_states(&self) -> usize {
        self.rows.iter().map(|r| r.stats.product_states).sum()
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<74} {:>10} {:>12} {:>10}\n",
            "property", "result", "prod.states", "time"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<74} {:>10} {:>12} {:>9.1?}\n",
                truncate(&r.name, 74),
                if r.holds { "PASS" } else { "FAIL" },
                r.stats.product_states,
                r.elapsed,
            ));
        }
        out.push_str(&format!(
            "total: {} properties, {} product states, {:.1?}\n",
            self.rows.len(),
            self.total_states(),
            self.total_time(),
        ));
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n - 1).collect::<String>() + "…"
    }
}

/// Runs the complete 21-property suite and returns the report.
///
/// Models: the VRASED key guard (P01–P03) and SW-Att atomicity monitor
/// (P04–P08), the APEX `EXEC` monitor with LTL 3 (P09–P17), the ASAP
/// IVT guard of Fig. 3 (P18–P20) and the composite ASAP monitor (P21).
pub fn verify_all() -> SuiteReport {
    let mut rows = Vec::new();
    let mut push = |model: &'static str, suite_rows: Vec<ltl_mc::mc::SuiteRow>| {
        for row in suite_rows {
            rows.push(PropertyRow {
                name: row.name,
                model,
                holds: row.result.holds,
                stats: row.result.stats,
                elapsed: row.result.elapsed,
            });
        }
    };

    let k = kripke_of(&KeyGuard::default());
    push("vrased.key_guard", check_suite(&k, &KeyGuard::properties()));

    let k = kripke_of_constrained(&SwAttAtomicity::default(), SwAttAtomicity::env_constraint);
    push(
        "vrased.atomicity",
        check_suite(&k, &SwAttAtomicity::properties()),
    );

    let k = kripke_of_constrained(&ApexMonitor::default(), ApexMonitor::env_constraint);
    push("apex.exec", check_suite(&k, &ApexMonitor::properties()));

    let k = kripke_of(&IvtGuard::default());
    push("asap.ivt_guard", check_suite(&k, &IvtGuard::properties()));

    let k = kripke_of_constrained(&AsapMonitor::default(), AsapMonitor::env_constraint);
    push(
        "asap.composite",
        check_suite(&k, &AsapMonitor::properties()),
    );

    SuiteReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_21_properties_and_all_hold() {
        let report = verify_all();
        assert_eq!(report.rows.len(), 21, "the paper's property count");
        for row in &report.rows {
            assert!(row.holds, "{} ({}) must hold", row.name, row.model);
        }
        assert!(report.all_hold());
    }

    #[test]
    fn report_renders() {
        let report = verify_all();
        let text = report.render();
        assert!(text.contains("P01"));
        assert!(text.contains("P21"));
        assert!(text.contains("PASS"));
        assert!(!text.contains("FAIL"));
    }
}

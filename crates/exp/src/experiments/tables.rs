//! Table 1 (platforms) and Table 5 (Swift application catalogue).

use crate::workflow::apps::table5;
use falkon_sim::platform;
use falkon_sim::table::Table;

/// Render Table 1.
pub(crate) fn render_table1() -> String {
    let mut t = Table::new(
        "Table 1: Platform descriptions",
        &["Name", "# of Nodes", "Processors", "Memory", "Network"],
    );
    for p in platform::ALL {
        t.row(vec![
            p.name.to_string(),
            p.nodes.to_string(),
            p.processors.to_string(),
            format!("{}GB", p.memory_gb),
            if p.network_mbps >= 1000 {
                format!("{}Gb/s", p.network_mbps / 1000)
            } else {
                format!("{}Mb/s", p.network_mbps)
            },
        ]);
    }
    t.render()
}

/// Render Table 5.
pub(crate) fn render_table5() -> String {
    let mut t = Table::new(
        "Table 5: Swift applications; all could benefit from Falkon",
        &["Application", "#Tasks/workflow", "#Stages"],
    );
    for app in &table5::APPLICATIONS {
        t.row(vec![
            app.name.to_string(),
            app.tasks_text.to_string(),
            app.stages_text.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let s = render_table1();
        assert!(s.contains("TG_ANL_IA32"));
        assert!(s.contains("Dual Itanium 1.5GHz"));
        assert!(s.contains("1Gb/s"));
        assert!(s.contains("100Mb/s"));
    }

    #[test]
    fn table5_matches_paper_rows() {
        let s = render_table5();
        assert!(s.contains("ATLAS"));
        assert!(s.contains("500K"));
        assert!(s.contains("MolDyn") || s.contains("SDSS"));
    }
}

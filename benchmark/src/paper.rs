//! Fidelity to the paper: how far the 58 regenerated Table 1/2 cells
//! are from the cells the paper printed. The paper's side comes from
//! `reference/paper_tables.tsv`, transcribed by hand, never from the
//! tables the code under test carries.

use cedar_experiments::{table1, table2};

/// One cell the paper printed.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperCell {
    /// `table1` or `table2`.
    pub table: String,
    /// Row name, as `table1::Row::name` / `table2::Row::name`.
    pub name: String,
    /// `speedup`, or one of Table 2's four columns.
    pub column: String,
    /// The paper's speed-up.
    pub paper: f64,
}

/// The transcribed cells.
pub fn paper_cells() -> Vec<PaperCell> {
    include_str!("../reference/paper_tables.tsv")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(
                f.len(),
                4,
                "paper_tables.tsv: four tab-separated fields per row: {l:?}"
            );
            PaperCell {
                table: f[0].into(),
                name: f[1].into(),
                column: f[2].into(),
                paper: f[3]
                    .parse()
                    .unwrap_or_else(|e| panic!("paper_tables.tsv: {l:?}: {e}")),
            }
        })
        .collect()
}

/// Fidelity of one regeneration of the tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Mean |ln(measured ÷ paper)| over all cells.
    pub log_err: f64,
    /// Share of cells within a factor 2 of the paper.
    pub within_2x: f64,
    /// Mean |ln| over Table 1's cells alone.
    pub table1_log_err: f64,
    /// Mean |ln| over Table 2's cells alone.
    pub table2_log_err: f64,
    /// Cells whose measured value is not a finite positive number, or
    /// that the regenerated tables do not have.
    pub bad_cells: usize,
}

fn measured(cell: &PaperCell, t1: &[table1::Row], t2: &[table2::Row]) -> Option<f64> {
    match cell.table.as_str() {
        "table1" => t1
            .iter()
            .find(|r| r.name == cell.name)
            .map(|r| r.measured_speedup),
        "table2" => {
            t2.iter()
                .find(|r| r.name == cell.name)
                .and_then(|r| match cell.column.as_str() {
                    "auto_fx80" => Some(r.auto_fx80),
                    "auto_cedar" => Some(r.auto_cedar),
                    "manual_fx80" => Some(r.manual_fx80),
                    "manual_cedar" => Some(r.manual_cedar),
                    _ => None,
                })
        }
        _ => None,
    }
}

/// Compare regenerated tables against the paper's cells.
pub fn fidelity(t1: &[table1::Row], t2: &[table2::Row]) -> Fidelity {
    let cells = paper_cells();
    let (mut sum, mut sum1, mut sum2, mut n1, mut n2) = (0.0, 0.0, 0.0, 0usize, 0usize);
    let (mut within, mut bad) = (0usize, 0usize);
    for c in &cells {
        let Some(m) = measured(c, t1, t2).filter(|m| m.is_finite() && *m > 0.0) else {
            bad += 1;
            continue;
        };
        let err = (m / c.paper).ln().abs();
        sum += err;
        if c.table == "table1" {
            sum1 += err;
            n1 += 1;
        } else {
            sum2 += err;
            n2 += 1;
        }
        if err <= std::f64::consts::LN_2 {
            within += 1;
        }
    }
    let good = (n1 + n2).max(1) as f64;
    Fidelity {
        log_err: sum / good,
        within_2x: within as f64 / cells.len() as f64,
        table1_log_err: sum1 / n1.max(1) as f64,
        table2_log_err: sum2 / n2.max(1) as f64,
        bad_cells: bad,
    }
}

/// Regenerate Tables 1 and 2 and compare them with the paper.
pub fn measure_fidelity() -> Fidelity {
    fidelity(&table1::run(), &table2::run())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2's columns, in the paper's order.
    const TABLE2_COLUMNS: [&str; 4] = ["auto_fx80", "auto_cedar", "manual_fx80", "manual_cedar"];

    #[test]
    fn the_transcription_has_the_58_cells_the_tables_have() {
        let cells = paper_cells();
        assert_eq!(cells.len(), 58);
        let t1: Vec<&str> = cells
            .iter()
            .filter(|c| c.table == "table1")
            .map(|c| c.name.as_str())
            .collect();
        let t1_rows: Vec<&str> = cedar_workloads::table1_workloads()
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(t1, t1_rows, "Table 1 names, in table1::Row::name order");
        assert!(cells
            .iter()
            .filter(|c| c.table == "table1")
            .all(|c| c.column == "speedup"));

        let t2: Vec<(&str, &str)> = cells
            .iter()
            .filter(|c| c.table == "table2")
            .map(|c| (c.name.as_str(), c.column.as_str()))
            .collect();
        let t2_rows: Vec<(&str, &str)> = cedar_workloads::table2_workloads()
            .iter()
            .flat_map(|w| TABLE2_COLUMNS.map(|c| (w.name, c)))
            .collect();
        assert_eq!(
            t2, t2_rows,
            "Table 2 names × columns, in table2::Row::name order"
        );
        assert!(cells.iter().all(|c| c.paper > 0.0));
    }

    #[test]
    fn fidelity_of_a_perfect_and_of_a_doubled_table() {
        let cells = paper_cells();
        let paper = |name: &str, col: &str| {
            cells
                .iter()
                .find(|c| c.name == name && c.column == col)
                .unwrap()
                .paper
        };
        let rows = |k: f64| {
            let t1: Vec<table1::Row> = cedar_workloads::table1_workloads()
                .iter()
                .map(|w| table1::Row {
                    name: w.name,
                    paper_size: w.paper_size,
                    our_size: w.size,
                    paper_speedup: 0.0,
                    measured_speedup: k * paper(w.name, "speedup"),
                    serial_cycles: 0.0,
                    parallel_cycles: 0.0,
                })
                .collect();
            let t2: Vec<table2::Row> = cedar_workloads::table2_workloads()
                .iter()
                .map(|w| table2::Row {
                    name: w.name,
                    auto_fx80: k * paper(w.name, "auto_fx80"),
                    auto_cedar: k * paper(w.name, "auto_cedar"),
                    manual_fx80: k * paper(w.name, "manual_fx80"),
                    manual_cedar: k * paper(w.name, "manual_cedar"),
                })
                .collect();
            (t1, t2)
        };
        let (t1, t2) = rows(1.0);
        let f = fidelity(&t1, &t2);
        assert_eq!(f.bad_cells, 0);
        assert!(f.log_err.abs() < 1e-12 && f.within_2x == 1.0);

        let (t1, t2) = rows(3.0);
        let f = fidelity(&t1, &t2);
        assert!((f.log_err - 3f64.ln()).abs() < 1e-12);
        assert!((f.table1_log_err - 3f64.ln()).abs() < 1e-12);
        assert_eq!(f.within_2x, 0.0);

        let (mut t1, t2) = rows(1.0);
        t1[0].measured_speedup = f64::NAN;
        assert_eq!(fidelity(&t1, &t2).bad_cells, 1);
    }
}

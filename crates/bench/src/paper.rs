//! The paper's tables and figures (`results/paper.json`): Tables 1–2
//! (lmbench latencies, UP and SMP) and Figs. 3–4 (relative application
//! performance, UP and SMP), printed and archived together.

use crate::{Json, Outcome};
use mercury_workloads::lmbench::LmbenchIters;
use mercury_workloads::report::{app_figure, lmbench_table, AppFigure, LmbenchTable};

/// Regenerate and print all four.
pub fn run() -> Outcome {
    let table = |t: &LmbenchTable| {
        println!("{}", t.render());
        Json::obj([
            ("columns", t.columns.clone().into()),
            ("cpus", t.cpus.into()),
        ])
    };
    let figure = |f: &AppFigure| {
        println!("{}", f.render());
        Json::obj([
            ("absolute", f.absolute.clone().into()),
            ("cpus", f.cpus.into()),
            ("series", f.series.clone().into()),
            ("units", f.units.clone().into()),
        ])
    };
    Outcome {
        name: "paper",
        metrics: Json::obj([
            ("table1", table(&lmbench_table(1, LmbenchIters::default()))),
            ("table2", table(&lmbench_table(2, LmbenchIters::default()))),
            ("fig3", figure(&app_figure(1, 2))),
            ("fig4", figure(&app_figure(2, 2))),
        ]),
        ok: true,
    }
}

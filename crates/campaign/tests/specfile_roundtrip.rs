//! `rcb run --spec docs/examples/nemesis.toml` must reproduce the built-in
//! `nemesis` scenario leaf-for-leaf: the example spec file and the catalog
//! entry describe the same campaign, so with equal seed/trials the cell
//! reports — timelines, survivor metrics, telemetry counters, every
//! deterministic leaf — are identical.

use rcb_campaign::{find, parse_spec, run_campaign, CampaignConfig};

const EXAMPLE: &str = include_str!("../../../docs/examples/nemesis.toml");

#[test]
fn example_spec_reproduces_the_builtin_nemesis_cells_leaf_for_leaf() {
    let from_file = parse_spec(EXAMPLE, "docs/examples/nemesis.toml").expect("example spec parses");
    let builtin = (find("nemesis").expect("nemesis is registered").build)();
    assert_eq!(from_file.name, builtin.name);
    assert_eq!(
        from_file.cells.len(),
        builtin.cells.len(),
        "example file mirrors the whole catalog entry"
    );

    let cfg = CampaignConfig {
        seed: 42,
        trials_per_cell: 2,
        threads: 2,
        max_slots: Some(200_000),
        ..Default::default()
    };
    let a = run_campaign(&from_file, &cfg);
    let b = run_campaign(&builtin, &cfg);
    for (i, (ca, cb)) in a.cells.iter().zip(&b.cells).enumerate() {
        assert_eq!(ca, cb, "cell {i} diverged between spec file and catalog");
    }

    // The schedules actually materialized: every cell carries a schedule
    // block and the artifact exposes the v4 markers CI greps for.
    assert!(a.cells.iter().all(|c| c.schedule.is_some()));
    let json = a.to_json();
    assert!(json.contains("\"schema_version\": 6"));
    assert!(json.contains("\"timeline\""));
    assert!(json.contains("\"survivors\""));
}

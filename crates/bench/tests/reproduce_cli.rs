//! The `reproduce` driver's command line. The cases here run no experiment.

use std::process::Command;

/// The usage's second line: every experiment, then `all`.
const LISTED: &str = "experiments: fig2_hyperparams fig4_load_balance fig5_stability \
                      fig7_train_valid fig8_posteriors train_scaling all";

/// An unknown experiment (even beside a known one), an unknown flag, or no
/// experiment at all: exit status 2, nothing on stdout, and a usage line
/// naming every experiment and `all` on stderr.
#[test]
fn a_bad_command_line_prints_the_usage_and_exits_2() {
    let cases: [&[&str]; 5] = [
        &["fig3_nonexistent"],
        &["fig7_train_valid", "fig3_nonexistent", "--json"],
        &["fig4_load_balance", "--quick"],
        &["--json"],
        &[],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(stderr.starts_with("usage: reproduce"), "{args:?}: {stderr}");
        assert!(stderr.lines().any(|l| l == LISTED), "{args:?}: {stderr}");
    }
}

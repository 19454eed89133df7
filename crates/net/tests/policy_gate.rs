//! Process-level tests for the static-analysis policy gate: `peatsd`
//! must refuse to start behind a statically broken policy, and
//! `peats policy check` must accept the good corpus and reject the bad
//! one with the right exit codes — the same contract CI's
//! `scripts/check_policies.sh` enforces over the whole corpus.

use std::process::Command;

fn corpus(file: &str) -> String {
    format!(
        "{}/../../examples/policies/{file}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn peatsd_refuses_a_statically_broken_policy_at_startup() {
    // f=0 makes a 1-replica cluster with no peers, so startup reaches the
    // policy gate without any networking prerequisites; the gate must fire
    // before the daemon ever binds its listen socket.
    let out = Command::new(env!("CARGO_BIN_EXE_peatsd"))
        .arg("--id")
        .arg("0")
        .arg("--f")
        .arg("0")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--policy-file")
        .arg(corpus("bad/PA001-unbound-variable.peats"))
        .output()
        .expect("spawn peatsd");
    assert!(
        !out.status.success(),
        "peatsd started despite an unbound-variable policy"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rejected by static analysis") && stderr.contains("PA001"),
        "stderr should name the gate and the code:\n{stderr}"
    );
}

#[test]
fn peatsd_refuses_a_zero_checkpoint_interval() {
    // Same f=0 startup as above; the interval is checked before the
    // daemon binds, whether it comes from the flag or the environment.
    let flag = ["--checkpoint-interval", "0"];
    let env = [("PEATSD_CHECKPOINT_INTERVAL", "0")];
    for (args, vars) in [(&flag[..], &[][..]), (&[][..], &env[..])] {
        let out = Command::new(env!("CARGO_BIN_EXE_peatsd"))
            .args(["--id", "0", "--f", "0", "--listen", "127.0.0.1:0"])
            .args(args)
            .envs(vars.iter().copied())
            .output()
            .expect("spawn peatsd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "peatsd started with a zero checkpoint interval:\n{stderr}"
        );
        assert!(
            stderr.contains("--checkpoint-interval"),
            "stderr should name the flag:\n{stderr}"
        );
    }
}

#[test]
fn peatsd_accepts_a_clean_policy_file() {
    // Same daemon, same gate, clean policy: the failure must now be the
    // *next* startup step (missing --param n/t), proving the analysis gate
    // itself passed and did not reject a good policy.
    let out = Command::new(env!("CARGO_BIN_EXE_peatsd"))
        .arg("--id")
        .arg("0")
        .arg("--f")
        .arg("0")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--policy-file")
        .arg(corpus("fig4_strong_consensus.peats"))
        .output()
        .expect("spawn peatsd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("rejected by static analysis"),
        "clean policy hit the analysis gate:\n{stderr}"
    );
    assert!(
        stderr.contains("but no value was supplied"),
        "expected the missing-parameter error past the gate:\n{stderr}"
    );
}

#[test]
fn policy_check_accepts_the_fig4_corpus_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_peats"))
        .arg("policy")
        .arg("check")
        .arg(corpus("fig4_strong_consensus.peats"))
        .arg("--params")
        .arg("n=4,t=1")
        .output()
        .expect("spawn peats");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}:\n{stdout}{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("policy strong_consensus") && stdout.contains("digest "),
        "should print the policy name and canonical digest:\n{stdout}"
    );
    assert!(
        stdout.contains("0 errors"),
        "should report no errors:\n{stdout}"
    );
}

#[test]
fn policy_check_rejects_an_unbound_variable_with_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_peats"))
        .arg("policy")
        .arg("check")
        .arg(corpus("bad/PA001-unbound-variable.peats"))
        .output()
        .expect("spawn peats");
    assert_eq!(
        out.status.code(),
        Some(2),
        "analysis errors must exit 2 (the CLI's denial code)"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("error[PA001]"),
        "diagnostic should carry the code:\n{stdout}"
    );
}

#[test]
fn policy_check_reports_parse_errors_with_position() {
    let out = Command::new(env!("CARGO_BIN_EXE_peats"))
        .arg("policy")
        .arg("check")
        .arg(corpus("bad/PARSE-truncated.peats"))
        .output()
        .expect("spawn peats");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("parse error"),
        "should report a parse error:\n{stdout}"
    );
}

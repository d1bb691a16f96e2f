//! The crash-restart check every workload ends with: drop the rig without
//! flushing, reopen a copy of what it left on disk, and hold the recovered
//! stack against the image taken the moment before the crash.

use crate::rig::{get_status, Rig};
use crate::wire::Conn;
use crate::workloads::{Ledger, Session};
use ofmf_core::Ofmf;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// One named check and whether it held.
pub type CheckResult = (String, bool);

/// What the crash-restart phase found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every check with its verdict.
    pub checks: Vec<CheckResult>,
    /// A pristine copy of the crashed journal (for the traced run's replay
    /// probes); removed with the work directory.
    pub crashed_wal: PathBuf,
}

impl Recovery {
    /// Whether every check held.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Copy the files of `from` (a journal directory) into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn etags(ofmf: &Ofmf) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    ofmf.registry.for_each(|id, stored| {
        out.insert(id.as_str().to_string(), stored.etag.0);
    });
    out
}

/// Crash `session`'s rig, recover a copy of what it left on disk, and
/// check the recovered stack against the live one. (Recovery is *timed*
/// during the run, once per round; this one carries the checks.)
pub fn crash_and_verify(
    session: Session,
    ledger: &Ledger,
    wal_dir: &Path,
    work_dir: &Path,
    seed: u64,
) -> io::Result<Recovery> {
    let Session { rig, token, conns, .. } = session;
    let live_tree = etags(&rig.ofmf);
    let live_compositions: BTreeMap<String, usize> = rig
        .composer
        .compositions()
        .into_iter()
        .map(|c| (c.system.as_str().to_string(), c.bindings.len()))
        .collect();
    drop(conns);
    rig.stop();

    let crashed_wal = work_dir.join("crashed-wal");
    copy_dir(wal_dir, &crashed_wal)?;
    let mut out = Recovery {
        crashed_wal: crashed_wal.clone(),
        ..Recovery::default()
    };

    // The checked recovery.
    let dir = work_dir.join("recover-check");
    copy_dir(&crashed_wal, &dir)?;
    let mut replay_checks: Vec<CheckResult> = Vec::new();
    let rig = Rig::boot(&dir, seed, None, |ofmf| {
        replay_checks.push(("boot replayed the journal".into(), ofmf.was_recovered()));
        let replayed = etags(ofmf);
        let same = replayed == live_tree;
        if !same {
            let diff = live_tree
                .iter()
                .filter(|(k, v)| replayed.get(*k) != Some(v))
                .map(|(k, v)| format!("{k}: live {v}, replayed {:?}", replayed.get(k)))
                .chain(
                    replayed
                        .keys()
                        .filter(|k| !live_tree.contains_key(*k))
                        .map(|k| format!("{k}: only in the replayed tree")),
                )
                .take(5)
                .collect::<Vec<_>>();
            eprintln!("replayed tree differs from live tree: {diff:#?}");
        }
        replay_checks.push(("replayed tree == live tree by id and ETag".into(), same));
        let chassis_ok = ledger
            .chassis
            .iter()
            .all(|p| ofmf.registry.exists(&ODataId::new(p.as_str())));
        replay_checks.push(("every acknowledged POST is present".into(), chassis_ok));
        let writes_ok = ledger.written.iter().all(|(path, tag)| {
            ofmf.registry
                .get(&ODataId::new(path.as_str()))
                .is_ok_and(|r| r.body.get("AssetTag").and_then(|v| v.as_str()) == Some(tag.as_str()))
        });
        replay_checks.push(("every acknowledged PATCH is present".into(), writes_ok));
        let systems_ok = ledger
            .systems
            .iter()
            .all(|p| ofmf.registry.exists(&ODataId::new(p.as_str())));
        replay_checks.push(("every acknowledged compose is present".into(), systems_ok));
    })?;
    out.checks.append(&mut replay_checks);
    let (restored, compensated) = rig.recovered.unwrap_or((0, 0));
    out.checks.push((
        format!(
            "composer restored {restored} of {} composition(s)",
            live_compositions.len()
        ),
        restored == live_compositions.len(),
    ));
    out.checks.push((
        format!("no half-bound composition ({compensated} compensated)"),
        compensated == 0,
    ));
    let bindings_ok = live_compositions.iter().all(|(system, bindings)| {
        rig.composer.find(&ODataId::new(system.as_str())).is_some_and(|c| {
            c.bindings.len() == *bindings && c.bindings.iter().all(|b| rig.ofmf.registry.exists(&b.connection))
        })
    });
    out.checks
        .push(("restored compositions keep every binding".into(), bindings_ok));
    let ledger_live = ledger.systems.iter().all(|p| live_compositions.contains_key(p));
    out.checks
        .push(("ledger and composer agree on live systems".into(), ledger_live));
    let dangling = rig.ofmf.registry.dangling_links();
    if !dangling.is_empty() {
        eprintln!(
            "dangling links after recovery: {:?}",
            &dangling[..dangling.len().min(5)]
        );
    }
    out.checks
        .push(("no dangling links after recovery".into(), dangling.is_empty()));
    let mut conn = Conn::connect(rig.addr)?;
    out.checks.push((
        "pre-crash session still authenticates".into(),
        get_status(&mut conn, &token, top::SYSTEMS)? == 200,
    ));
    drop(conn);
    rig.stop();
    std::fs::remove_dir_all(&dir)?;

    Ok(out)
}

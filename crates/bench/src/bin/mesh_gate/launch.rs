//! The one launcher: ranks `1..RANKS` as OS processes re-executing this
//! binary, rank 0 in-process, every rank's [`Fragment`] collected.
//!
//! [`Mesh`] owns the children. Whatever happens to the gate — a rank
//! exits non-zero, rank 0's half panics, the deadline passes, the caller
//! returns early — every child is killed if need be and waited for, and
//! the temp dir is removed, before the error is reported: a rank left
//! behind would still be dialing and still hold listener ports, and would
//! poison the next mesh's connect. Every error carries the replay string.

use crate::fragment::Fragment;
use crate::RANKS;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Longest any one mesh may live. The slowest healthy one takes seconds;
/// a mesh still running after this is hung, and CI must see an error
/// naming the stuck rank rather than block.
const MESH_DEADLINE: Duration = Duration::from_secs(180);

struct Member {
    rank: usize,
    child: Child,
    exited: bool,
    /// Killed on purpose ([`Mesh::kill`]): its exit status and its
    /// missing fragment are not failures.
    expected_dead: bool,
}

pub struct Mesh {
    members: Vec<Member>,
    dir: PathBuf,
    replay: String,
    deadline: Instant,
}

impl Mesh {
    /// Spawn `command(rank, temp dir)` for every rank in `ranks`.
    pub fn launch(
        replay: &str,
        deadline: Duration,
        ranks: std::ops::Range<usize>,
        mut command: impl FnMut(usize, &Path) -> Command,
    ) -> Result<Self, String> {
        static LAUNCHES: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mesh_gate_{}_{}",
            std::process::id(),
            LAUNCHES.fetch_add(1, Ordering::Relaxed)
        ));
        let mut mesh = Self {
            members: Vec::new(),
            dir,
            replay: replay.to_string(),
            deadline: Instant::now() + deadline,
        };
        std::fs::create_dir_all(&mesh.dir)
            .map_err(|e| mesh.fail(format!("{}: {e}", mesh.dir.display())))?;
        for rank in ranks {
            let child = command(rank, &mesh.dir)
                .spawn()
                .map_err(|e| mesh.fail(format!("spawn rank {rank}: {e}")))?;
            mesh.members.push(Member {
                rank,
                child,
                exited: false,
                expected_dead: false,
            });
        }
        Ok(mesh)
    }

    /// Run rank 0's half of the mesh on its own thread and wait for it,
    /// watching the children meanwhile: if one of them dies, rank 0 is
    /// blocked on a collective that can never complete, and only the
    /// watcher can say which rank caused it. On failure the thread is
    /// left behind — the process is about to exit with the error.
    pub fn run_rank0<T: Send + 'static>(
        &mut self,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, String> {
        let rank0 = std::thread::spawn(body);
        self.watch(Some("rank 0 (in-process)"), |_| rank0.is_finished())?;
        rank0
            .join()
            .map_err(|_| self.fail("rank 0 (in-process) panicked".into()))
    }

    /// Kill one rank's process on purpose (the recovery gate's victim,
    /// blocked for good on the mesh it went dark on).
    pub fn kill(&mut self, rank: usize) {
        let m = self
            .members
            .iter_mut()
            .find(|m| m.rank == rank)
            .expect("kill: no such member rank");
        m.expected_dead = true;
        m.stop();
    }

    /// Wait for every child, then read the fragment of each one that was
    /// not killed on purpose, in rank order.
    pub fn reap(mut self) -> Result<Vec<Fragment>, String> {
        self.watch(None, |mesh| mesh.members.iter().all(|m| m.exited))?;
        let frags: Result<Vec<Fragment>, String> = self
            .members
            .iter()
            .filter(|m| !m.expected_dead)
            .map(|m| Fragment::read(&self.dir, m.rank))
            .collect();
        frags.map_err(|e| self.fail(e))
    }

    /// Poll until `done`, failing the mesh on the first child with a bad
    /// exit status or at the deadline. `besides` names what the caller is
    /// waiting on besides the children, for the deadline's message.
    fn watch(&mut self, besides: Option<&str>, done: impl Fn(&Self) -> bool) -> Result<(), String> {
        loop {
            for m in self.members.iter_mut().filter(|m| !m.exited) {
                let failure = match m.child.try_wait() {
                    Ok(None) => continue,
                    Ok(Some(status)) => {
                        m.exited = true;
                        (!status.success() && !m.expected_dead)
                            .then(|| format!("rank {} exited with {status}", m.rank))
                    }
                    Err(e) => Some(format!("rank {}: {e}", m.rank)),
                };
                if let Some(msg) = failure {
                    return Err(self.fail(msg));
                }
            }
            if done(self) {
                return Ok(());
            }
            if Instant::now() >= self.deadline {
                let stuck: Vec<String> = (self.members.iter().filter(|m| !m.exited))
                    .map(|m| format!("rank {}", m.rank))
                    .chain(besides.map(String::from))
                    .collect();
                return Err(self.fail(format!(
                    "mesh deadline expired with {} still running — killed",
                    stuck.join(", ")
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stop whatever is still running and finish the error message.
    fn fail(&mut self, msg: String) -> String {
        self.members.iter_mut().for_each(Member::stop);
        format!("{msg}; {}", self.replay)
    }
}

impl Member {
    /// Kill (a no-op on a process that already exited) and wait, so no
    /// child outlives the mesh, not even as a zombie.
    fn stop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.exited = true;
        }
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.members.iter_mut().for_each(Member::stop);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One mesh of a gate, start to finish: ranks `1..RANKS` re-execute this
/// binary as `rank <role> <rank> <port> <dir> <extra..>` (see `main`),
/// `rank0` runs here, `victim` — a rank scripted to go dark, whose
/// process then blocks for good — is killed once rank 0 is through, and
/// the fragments of every other rank come back in rank order beside
/// whatever else rank 0 has to tell.
pub fn run_mesh<T: Send + 'static>(
    replay: &str,
    port: u16,
    (role, extra): (&str, &[String]),
    victim: Option<usize>,
    rank0: impl FnOnce() -> (Fragment, T) + Send + 'static,
) -> Result<(Vec<Fragment>, T), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}; {replay}"))?;
    let mut mesh = Mesh::launch(replay, MESH_DEADLINE, 1..RANKS, |rank, dir| {
        let mut cmd = Command::new(&exe);
        cmd.args(["rank", role, &rank.to_string(), &port.to_string()])
            .arg(dir)
            .args(extra);
        cmd
    })?;
    let (frag0, told) = mesh.run_rank0(rank0)?;
    if let Some(rank) = victim {
        mesh.kill(rank);
    }
    let mut frags = vec![frag0];
    frags.extend(mesh.reap()?);
    Ok((frags, told))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Duration = Duration::from_secs(60);
    const SHORT: Duration = Duration::from_millis(200);

    /// A stand-in mesh: rank `i + 1` is `sh -c scripts[i]`.
    fn mesh(replay: &str, deadline: Duration, scripts: &[&str]) -> (Mesh, Vec<u32>) {
        let mesh = Mesh::launch(replay, deadline, 1..scripts.len() + 1, |rank, _| {
            let mut cmd = Command::new("sh");
            cmd.args(["-c", scripts[rank - 1]]);
            cmd
        });
        let mesh = mesh.expect("sh spawns");
        let pids = mesh.members.iter().map(|m| m.child.id()).collect();
        (mesh, pids)
    }

    /// Reaped, not merely signalled: a killed-but-unwaited child keeps
    /// its `/proc` entry as a zombie.
    fn all_gone(pids: &[u32]) -> bool {
        (pids.iter()).all(|pid| !Path::new(&format!("/proc/{pid}")).exists())
    }

    #[test]
    fn a_failing_rank_fails_the_mesh_once_every_child_is_reaped() {
        let replay = "schedule `drop` seed 0xc0ffee00";
        let (mesh, pids) = mesh(replay, LONG, &["sleep 60", "exit 3", "sleep 60"]);
        let (dir, t0) = (mesh.dir.clone(), Instant::now());
        let err = mesh.reap().unwrap_err();
        assert_eq!(err, format!("rank 2 exited with exit status: 3; {replay}"));
        assert!(all_gone(&pids), "children survived their mesh");
        assert!(!dir.exists(), "temp dir survived the error path");
        assert!(t0.elapsed() < LONG / 2, "waited out a sleeper");
    }

    #[test]
    fn a_rank_that_never_exits_is_killed_at_the_deadline_and_named() {
        let (mut mesh, pids) = mesh("--kill-at 105", SHORT, &["exit 0", "sleep 60"]);
        // Rank 0's half returns; rank 2 is what hangs.
        assert_eq!(mesh.run_rank0(|| 7).unwrap(), 7);
        let err = mesh.reap().unwrap_err();
        assert!(err.contains("expired with rank 2 still running"), "{err}");
        assert!(err.ends_with("; --kill-at 105"), "{err}");
        assert!(all_gone(&pids));
    }

    #[test]
    fn a_hung_or_panicking_rank0_fails_the_mesh_instead_of_orphaning_it() {
        let (mut hung, pids) = mesh("replay", SHORT, &["sleep 60"]);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let err = hung.run_rank0(move || rx.recv().is_ok()).unwrap_err();
        assert!(
            err.contains("with rank 1, rank 0 (in-process) still"),
            "{err}"
        );
        assert!(all_gone(&pids));
        drop(tx);

        let (mut mesh, pids) = mesh("replay", LONG, &["sleep 60"]);
        let err = mesh.run_rank0(|| panic!("rank 0 blew up (this test expects it)"));
        assert_eq!(err.unwrap_err(), "rank 0 (in-process) panicked; replay");
        assert!(all_gone(&pids));
    }

    #[test]
    fn dropping_the_guard_or_failing_a_spawn_leaves_no_live_child() {
        let (mesh, pids) = mesh("replay", LONG, &["sleep 60", "sleep 60"]);
        let dir = mesh.dir.clone();
        drop(mesh);
        assert!(all_gone(&pids) && !dir.exists());

        // A spawn that fails half-way is the same early return.
        let err = Mesh::launch("replay", LONG, 1..3, |rank, _| {
            Command::new(["sleep", "/nonexistent-mesh-gate-binary"][rank - 1])
        });
        let err = err.err().expect("second spawn must fail");
        assert!(err.starts_with("spawn rank 2:"), "{err}");
        assert!(err.ends_with("; replay"), "{err}");
    }

    #[test]
    fn a_deliberate_kill_is_not_a_failure_and_its_fragment_is_not_read() {
        let (mut mesh, _) = mesh("replay", LONG, &["exit 0", "sleep 60"]);
        let mut f = Fragment::new(1);
        f.add("retries", 0);
        f.write(&mesh.dir).unwrap();
        mesh.kill(2);
        assert_eq!(mesh.reap().unwrap(), [f]);
    }
}

"""FS rule family: crash-consistency ordering over filesystem effects.

Each rule gets a tripping shape and the disciplined counterpart, so the
suite pins down both halves: the bug class is caught, and the shipped
idiom (fsync-before-publish, dirfsync-before-delete, unlink-without-
close, commit-before-swap, sweep-on-recovery) stays clean.
"""

LSM_PATH = "src/repro/docstore/lsm/fixture.py"


def fs(check_project, sources):
    if isinstance(sources, str):
        sources = {LSM_PATH: sources}
    return check_project(sources, "fs-consistency")


class TestFS001UnsyncedWrites:
    def test_write_without_fsync_before_publish_trips(
        self, check_project, rule_ids
    ):
        findings = fs(
            check_project,
            """
            import os

            def publish(path, payload):
                with open(path + ".tmp", "w") as fh:
                    fh.write(payload)
                os.replace(path + ".tmp", path)
            """,
        )
        assert "FS001" in rule_ids(findings)

    def test_fsync_covered_write_is_clean(self, check_project, rule_ids):
        findings = fs(
            check_project,
            """
            import os

            def publish(path, payload):
                with open(path + ".tmp", "w") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(path + ".tmp", path)
            """,
        )
        assert "FS001" not in rule_ids(findings)

    def test_escaped_handle_is_not_judged_here(
        self, check_project, rule_ids
    ):
        # The durability obligation travels with the handle; the local
        # frame cannot be blamed for not fsyncing it.
        findings = fs(
            check_project,
            """
            import os

            def open_log(path):
                fh = open(path, "ab")
                fh.write(b"header")
                return fh

            def probe(fd):
                return os.pread(fd, 8, 0)
            """,
        )
        assert "FS001" not in rule_ids(findings)

    def test_modules_outside_the_durable_domain_are_ignored(
        self, check_project, rule_ids
    ):
        # A CSV exporter writes without fsync by design: no commit
        # protocol, no crash-consistency contract, no finding.
        findings = check_project(
            {
                "src/repro/io/fixture.py": """
                def export(path, rows):
                    with open(path, "w") as fh:
                        for row in rows:
                            fh.write(row)
                """
            },
            "fs-consistency",
        )
        assert rule_ids(findings) == []


class TestFS002ReplaceWithoutDirfsync:
    def test_delete_after_replace_without_dirfsync_trips(
        self, check_project, rule_ids
    ):
        findings = fs(
            check_project,
            """
            import os

            def commit(manifest, wal):
                tmp = manifest + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write("state")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, manifest)
                os.remove(wal)
            """,
        )
        assert "FS002" in rule_ids(findings)

    def test_dirfsync_helper_between_replace_and_delete_is_clean(
        self, check_project, rule_ids
    ):
        # The helper is recognized structurally (os.open + os.fsync of
        # the directory fd) and spliced in through the call graph.
        findings = fs(
            check_project,
            """
            import os

            def _dirsync(directory):
                fd = os.open(directory, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

            def commit(manifest, wal):
                tmp = manifest + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write("state")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, manifest)
                _dirsync(os.path.dirname(manifest))
                os.remove(wal)
            """,
        )
        assert "FS002" not in rule_ids(findings)

    def test_failure_path_cleanup_is_not_a_dependent_delete(
        self, check_project, rule_ids
    ):
        # Removing the temp file in an except handler is compensation,
        # not a success-path delete the rename must durably precede.
        findings = fs(
            check_project,
            """
            import os

            def commit(manifest):
                tmp = manifest + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write("state")
                    fh.flush()
                    os.fsync(fh.fileno())
                try:
                    os.replace(tmp, manifest)
                except OSError:
                    os.remove(tmp)
                    raise
            """,
        )
        assert "FS002" not in rule_ids(findings)


class TestFS003CloseBeforeUnlink:
    def test_close_then_unlink_of_shared_run_trips(
        self, check_project, rule_ids
    ):
        findings = fs(
            check_project,
            """
            import os
            import threading

            class RunSet:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._runs = []

                def read(self, key):
                    with self._lock:
                        runs = list(self._runs)
                    for run in runs:
                        data = os.pread(run.fd, 16, 0)
                        if data:
                            return data
                    return None

                def retire(self):
                    with self._lock:
                        victims = list(self._runs)
                        self._runs = []
                    for run in victims:
                        run.close()
                        run.remove()
            """,
        )
        assert "FS003" in rule_ids(findings)

    def test_unlink_without_close_is_clean(
        self, check_project, rule_ids
    ):
        findings = fs(
            check_project,
            """
            import os
            import threading

            class RunSet:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._runs = []

                def read(self, key):
                    with self._lock:
                        runs = list(self._runs)
                    for run in runs:
                        data = os.pread(run.fd, 16, 0)
                        if data:
                            return data
                    return None

                def retire(self):
                    with self._lock:
                        victims = list(self._runs)
                        self._runs = []
                    for run in victims:
                        run.remove()
            """,
        )
        assert "FS003" not in rule_ids(findings)

    def test_private_never_published_handle_may_close_first(
        self, check_project, rule_ids
    ):
        # A local object no reader ever saw (the compaction race-loser
        # shape) has no snapshot holders; close-then-remove is fine.
        findings = fs(
            check_project,
            """
            import os
            import threading

            class RunSet:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._runs = []

                def read(self):
                    with self._lock:
                        return [os.pread(r.fd, 8, 0) for r in self._runs]

                def discard_unpublished(self, merged):
                    merged.close()
                    merged.remove()
            """,
        )
        assert "FS003" not in rule_ids(findings)


class TestFS004SwapBeforeCommit:
    SOURCES = """
        import os

        class Engine:
            def __init__(self):
                self._runs = []
                self._manifest = "m.json"

            def _commit(self, runs):
                tmp = self._manifest + ".manifest-tmp"
                with open(tmp, "w") as fh:
                    fh.write(str(runs))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self._manifest)

            def sweep(self, names):
                for name in names:
                    if name.endswith((".tmp", ".manifest-tmp")):
                        os.remove(name)

            def %s
    """

    def test_state_swap_before_manifest_commit_trips(
        self, check_project, rule_ids
    ):
        findings = fs(
            check_project,
            self.SOURCES
            % (
                "flush(self, merged):\n"
                "                keep = [r for r in self._runs]\n"
                "                self._runs = keep + [merged]\n"
                "                self._commit(self._runs)\n"
            ),
        )
        assert "FS004" in rule_ids(findings)

    def test_commit_before_swap_is_clean(self, check_project, rule_ids):
        findings = fs(
            check_project,
            self.SOURCES
            % (
                "flush(self, merged):\n"
                "                keep = [r for r in self._runs]\n"
                "                new_runs = keep + [merged]\n"
                "                self._commit(new_runs)\n"
                "                self._runs = new_runs\n"
            ),
        )
        assert "FS004" not in rule_ids(findings)


class TestFS005TempFilesWithoutSweep:
    def test_unswept_temp_suffix_trips(self, check_project, rule_ids):
        findings = fs(
            check_project,
            """
            import os

            def publish(path, payload):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            """,
        )
        assert "FS005" in rule_ids(findings)

    def test_swept_temp_suffix_is_clean(self, check_project, rule_ids):
        findings = fs(
            check_project,
            """
            import os

            def publish(path, payload):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)

            def recover(directory):
                for name in os.listdir(directory):
                    if name.endswith(".tmp"):
                        os.remove(os.path.join(directory, name))
            """,
        )
        assert "FS005" not in rule_ids(findings)


class TestFS006FsyncUnderContendedLock:
    SOURCES = """
        import os
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._side = threading.Lock()
                self._fh = open("wal", "ab")
                self._written = 0

            def nested(self):
                with self._lock:
                    with self._side:
                        self._written += 1

            def %s
    """

    def test_fsync_inside_contended_lock_trips(
        self, check_project, rule_ids
    ):
        findings = fs(
            check_project,
            self.SOURCES
            % (
                "sync(self):\n"
                "                with self._lock:\n"
                "                    os.fsync(self._fh.fileno())\n"
            ),
        )
        assert "FS006" in rule_ids(findings)

    def test_fsync_in_helper_called_under_lock_trips(
        self, check_project, rule_ids
    ):
        # The ambient held set (PR-3 fixpoint) reaches the helper even
        # though the helper itself never touches the lock.
        findings = fs(
            check_project,
            self.SOURCES
            % (
                "flush(self):\n"
                "                with self._lock:\n"
                "                    self._sync_helper()\n"
                "\n"
                "            def _sync_helper(self):\n"
                "                os.fsync(self._fh.fileno())\n"
            ),
        )
        assert "FS006" in rule_ids(findings)

    def test_group_commit_fsync_outside_the_lock_is_clean(
        self, check_project, rule_ids
    ):
        findings = fs(
            check_project,
            self.SOURCES
            % (
                "sync(self):\n"
                "                with self._lock:\n"
                "                    target = self._written\n"
                "                os.fsync(self._fh.fileno())\n"
                "                return target\n"
            ),
        )
        assert "FS006" not in rule_ids(findings)


class TestShippedEngineIsClean:
    def test_src_tree_has_no_fs_error_findings(self, shipped_findings):
        # The real engine must satisfy every ordering rule; only the
        # justified FS006 perf notes (baselined) may remain.
        findings = shipped_findings("FS")
        assert sorted(
            {f.rule_id for f in findings}
        ) == ["FS006"], [f.message for f in findings]

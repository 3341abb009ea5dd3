"""PUR009 fixture: shard-pool workers (run_tasks) mutating module state."""

SHARD_STATS = {}
MERGED = []


def shard_worker(task):
    SHARD_STATS[task] = task * 2  # PUR009: module-level subscript store
    return task * 2


def gather_worker(task):
    MERGED.append(task)  # PUR009: module-level mutator call
    return task


def clean_shard_worker(task):
    local = {"result": task * 2}
    return local["result"]


def fan_out_shards(run_tasks, tasks):
    positional = run_tasks(tasks, shard_worker, jobs=4)
    by_keyword = run_tasks(tasks, worker=gather_worker, jobs=4)
    clean = run_tasks(tasks, worker=clean_shard_worker)
    return positional, by_keyword, clean

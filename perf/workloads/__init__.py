"""The five workloads, by name (BENCHMARK.json lists the same five)."""

from perf.workloads.append_single import AppendSingle
from perf.workloads.bulk_transfer import BulkTransfer
from perf.workloads.commit_contended import CommitContended
from perf.workloads.name_churn import NameChurn
from perf.workloads.read_verified import ReadVerified

WORKLOADS = {
    cls.name: cls
    for cls in (AppendSingle, ReadVerified, BulkTransfer, CommitContended, NameChurn)
}

"""Test helper: record (item, value) pairs into a histogram's metrics."""


def record_pairs(builder, pairs, origin=None, now=0):
    """Bulk-insert ``pairs``, one ``insert_bulk`` per bucket, in bucket order."""
    by_bucket = {}
    for item, value in pairs:
        by_bucket.setdefault(builder.spec.bucket_index(value), []).append(item)
    for index, items in sorted(by_bucket.items()):
        builder.dhs.insert_bulk(
            builder.metric_for_bucket(index), items, origin=origin, now=now
        )

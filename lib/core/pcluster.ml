(* The multi-domain cluster's former name. [Cluster] now shards by
   [config.domains] itself; this alias stays only because perfbench/
   compiles against it and changes only with the benchmark. The next
   benchmark change moves perfbench onto [Cluster] and deletes this file. *)

include Cluster

let net_stats = Cluster.net_stats_by_shard

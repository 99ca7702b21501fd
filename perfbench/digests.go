package main

// referenceDigests are the SHA-256 digests of each workload's checked
// output at defaultSeed. A simulation workload hashes its JSONL sink
// stream; the service hashes its cold jobs' streamed records, client by
// client. A change that alters any simulated result or record byte
// changes them.
var referenceDigests = map[string]string{
	"paper-169":      "dfd0d83c7d2ad5e8abe0e909b9ecb7d35cc90e4bbefc802d1439cd8996ee0631",
	"mobility-225":   "cb71cc89b241e30cbb3cc5f12b21f1af85d0bac9e8578c21b5c48b29c4af6536",
	"scale-1e5":      "a469ecd6a77438ea3adce3997bd4afe31e94734f286c6c8a1a84f72625b34671",
	"service-replay": "cff4f17fbec0974b029eb1c233795658f1264923772219f473c6052bafa896e1",
}

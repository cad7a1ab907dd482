package cluster

// KeptLen is how many sub-request bodies the coordinator keeps shard
// replies for.
func (c *Coordinator) KeptLen() int { return c.kept.Len() }
